(** The seeded 30-bit LCG the adversarial generators draw from:
    [s' = (s * 1103515245 + 12345) land 0x3fffffff]. Recorded traces
    and goldens depend on its exact draws, so it must never change.
    Each caller whitens its seed with its own constant. *)

type t

val make : int -> t
(** A generator whose state is the seed's low 30 bits. *)

val next : t -> int
(** Advance one step; the new 30-bit state. *)

val below : t -> int -> int
(** [next] mod [n], or 0 when [n <= 0]. *)
