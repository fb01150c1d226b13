(** The notary enclave's image (paper §8.2): code, state and heap pages,
    the output page at {!Os.shared_base}, an [input_pages]-page input
    window over {!Os.document_base} and one thread, added in that order. *)

val make : input_pages:int -> Image.t
