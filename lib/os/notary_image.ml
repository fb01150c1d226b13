module Word = Komodo_machine.Word
module Ptable = Komodo_machine.Ptable
module Mapping = Komodo_core.Mapping
module Notary = Komodo_user.Notary

let make ~input_pages =
  let page i = Word.of_int (i * Ptable.page_size) in
  let secure va img =
    Image.add_secure_page img
      ~mapping:(Mapping.make ~va ~w:true ~x:false)
      ~contents:(String.make Ptable.page_size '\000')
  in
  let insecure ~w va target img =
    Image.add_insecure_mapping img ~mapping:(Mapping.make ~va ~w ~x:false) ~target
  in
  let code = Komodo_user.Uprog.(to_page_images (native_words ~id:Notary.native_id)) in
  Image.add_blob (Image.empty ~name:"notary") ~va:Notary.code_va ~w:false ~x:true code
  |> secure Notary.state_va |> secure Notary.heap_va
  |> insecure ~w:true Notary.output_va Os.shared_base
  |> Fun.flip
       (List.fold_left (fun img i ->
            insecure ~w:false (Word.add Notary.input_va (page i))
              (Word.add Os.document_base (page i)) img))
       (List.init input_pages Fun.id)
  |> Image.add_thread ~entry:Notary.code_va
