(* Quickstart: boot the platform, build a tiny enclave, run it.

   This walks the whole Komodo stack once: the bootloader reserves
   secure memory and derives the attestation secret; the OS builds an
   enclave through the monitor's SMC API (Table 1); Enter drops into
   user mode under the enclave's page table; the enclave computes and
   exits back through the monitor.

   Run with: dune exec examples/quickstart.exe *)

module Word = Komodo_machine.Word
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Progs = Komodo_user.Progs
module Sha256 = Komodo_crypto.Sha256

let () =
  (* 1. Boot: bootloader configures secure world, then Linux-alike runs. *)
  let os = Os.boot ~seed:2026 ~npages:64 () in
  let os, err, npages = Os.get_phys_pages os in
  assert (Errors.is_success err);
  Printf.printf "monitor reports %d secure pages\n" npages;

  (* 2. Describe the enclave: one code page (the add_args program), one
     thread starting at its first instruction. *)
  let image = Image.program ~name:"quickstart" Progs.add_args in
  Printf.printf "image needs %d secure pages; expected measurement %s...\n"
    (Image.pages_needed image)
    (String.sub (Sha256.to_hex (Image.expected_measurement image)) 0 16);

  (* 3. Load: the untrusted OS replays the image through the monitor. *)
  let os, enclave =
    match Loader.load os image with
    | Ok r -> r
    | Error e -> failwith (Format.asprintf "load failed: %a" Loader.pp_error e)
  in
  let thread = List.hd enclave.Loader.threads in
  Printf.printf "enclave loaded: addrspace page %d, thread page %d\n"
    enclave.Loader.addrspace thread;

  (* 4. Enter with three arguments; the enclave adds them and exits. *)
  let os, err, result =
    Os.enter os ~thread ~args:(Word.of_int 40, Word.of_int 1, Word.of_int 1)
  in
  Printf.printf "Enter -> %s, result = %d\n" (Errors.show err) (Word.to_int result);
  assert (Errors.is_success err && Word.to_int result = 42);

  (* 5. Tear down: Stop, then Remove every page. *)
  let os =
    match Loader.unload os enclave with
    | Ok os -> os
    | Error e -> failwith (Format.asprintf "unload failed: %a" Loader.pp_error e)
  in
  Printf.printf "enclave torn down; %d pages free again\n"
    (Komodo_os.Alloc.available os.Os.alloc);
  print_endline "quickstart: OK"
