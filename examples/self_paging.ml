(* Enclave self-paging through the dispatcher interface (paper §9.2).

   The paper's future work proposes replacing transparent save/restore
   with a LibOS-style dispatcher: explicit user-mode upcalls to resume a
   thread or report an exception, permitting enclave self-paging without
   exposing page faults to the untrusted OS. This repository implements
   that design; here an enclave demand-maps its own heap:

   1. the enclave registers a fault dispatcher (SetDispatcher SVC);
   2. its main code touches an unmapped page and faults;
   3. the monitor upcalls the dispatcher *inside the enclave* with the
      fault class and faulting address — the OS sees nothing;
   4. the dispatcher maps one of the enclave's spare pages at the
      faulting address (MapData SVC) and resumes (ResumeFaulted SVC);
   5. the faulting load retries, now hitting a fresh zero-filled page.

   Run with: dune exec examples/self_paging.exe *)

module Word = Komodo_machine.Word
module Ptable = Komodo_machine.Ptable
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Mapping = Komodo_core.Mapping
module Uprog = Komodo_user.Uprog
module Progs = Komodo_user.Progs

let dispatcher_va = Word.of_int 0x4000

let () =
  let os = Os.boot ~seed:0x5E1F ~npages:48 () in
  let disp_pages = Uprog.to_page_images (Uprog.code_words Progs.self_paging_dispatcher) in
  let image =
    Image.program ~spares:1 ~name:"self-paging" Progs.self_paging_main |> fun img ->
    Image.add_blob img ~va:dispatcher_va ~w:false ~x:true disp_pages |> fun img ->
    (* A RW stash page where main leaves the spare-page number. *)
    Image.add_secure_page img
      ~mapping:(Mapping.make ~va:(Word.of_int 0x1000) ~w:true ~x:false)
      ~contents:(String.make Ptable.page_size '\000')
  in
  let os, enclave =
    match Loader.load os image with
    | Ok r -> r
    | Error e -> failwith (Format.asprintf "load: %a" Loader.pp_error e)
  in
  let spare = List.hd enclave.Loader.spares in
  let thread = List.hd enclave.Loader.threads in
  Printf.printf "enclave loaded with dispatcher at %s, spare page %d\n"
    (Word.show dispatcher_va) spare;

  (* One Enter: the fault, the upcall, the demand-map and the retry all
     happen inside it. The OS observes a single successful call. *)
  let os, err, v =
    Os.enter os ~thread ~args:(Word.of_int spare, dispatcher_va, Word.zero)
  in
  Printf.printf "Enter -> %s, value = %#x\n" (Errors.show err) (Word.to_int v);
  assert (Errors.is_success err);
  assert (Word.to_int v = 0xD15E);
  print_endline "the OS never observed the page fault: no Fault code, no address";

  (* Contrast: without a dispatcher the same access pattern reports a
     bare Fault to the OS. *)
  let os2 = Os.boot ~seed:0x5E1F ~npages:48 () in
  let bare = Image.program ~name:"bare" Progs.fault_unmapped in
  (match Loader.load os2 bare with
  | Ok (os2, h) ->
      let _, err, _ =
        Os.enter os2 ~thread:(List.hd h.Loader.threads)
          ~args:(Word.zero, Word.zero, Word.zero)
      in
      Printf.printf "without a dispatcher, the same fault exits with: %s\n"
        (Errors.show err)
  | Error e -> failwith (Format.asprintf "%a" Loader.pp_error e));
  ignore os;
  print_endline "self-paging demo: OK"
