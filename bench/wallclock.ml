(** Bechamel wall-clock benchmarks.

    Simulated cycles (the Table 3 / Figure 5 numbers) are deterministic;
    these additionally measure real wall-clock time of the model itself
    — one Bechamel test per reproduced table/figure — which is the
    conventional "is the simulator usably fast" check. *)

open Bechamel
open Toolkit

module Word = Komodo_machine.Word
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Uprog = Komodo_user.Uprog
module Progs = Komodo_user.Progs
module Insn = Komodo_machine.Insn
open Uprog

let exit0 =
  [ Insn.I (Insn.Mov (r1, imm 0)); Insn.I (Insn.Mov (r0, imm 0)); Insn.I (Insn.Svc Word.zero) ]

(* Shared fixtures, built once. *)
let fixture =
  lazy
    (let os = Os.boot ~seed:9 ~npages:64 () in
     match Loader.load os (Image.program ~name:"wc" exit0) with
     | Ok (os, h) -> (os, List.hd h.Loader.threads)
     | Error e -> failwith (Format.asprintf "wallclock fixture: %a" Loader.pp_error e))

let test_null_smc =
  Test.make ~name:"table3/null-smc"
    (Staged.stage (fun () ->
         let os, _ = Lazy.force fixture in
         let _, e, _ = Os.get_phys_pages os in
         assert (Errors.is_success e)))

let test_crossing =
  Test.make ~name:"table3/enter-exit"
    (Staged.stage (fun () ->
         let os, th = Lazy.force fixture in
         let _, e, _ = Os.enter os ~thread:th ~args:(Word.zero, Word.zero, Word.zero) in
         assert (Errors.is_success e)))

let test_sha_page =
  Test.make ~name:"table2/sha256-4k"
    (Staged.stage
       (let page = String.make 4096 'x' in
        fun () -> ignore (Komodo_crypto.Sha256.digest page)))

let test_notary_sign =
  Test.make ~name:"figure5/rsa-sign"
    (Staged.stage
       (let seed = ref 5 in
        let rng () =
          seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
          !seed
        in
        let key = lazy (Komodo_crypto.Rsa.generate ~rng ~bits:1024) in
        let digest = Komodo_crypto.Sha256.digest "bench" in
        fun () -> ignore (Komodo_crypto.Rsa.sign (Lazy.force key) digest)))

let test_nonint_step =
  Test.make ~name:"security/nonint-10-ops"
    (Staged.stage (fun () ->
         match Komodo_sec.Nonint.run_confidentiality ~seed:3 ~nops:10 with
         | None -> ()
         | Some f -> failwith (Format.asprintf "%a" Komodo_sec.Nonint.pp_failure f)))

let all_tests =
  [ test_null_smc; test_crossing; test_sha_page; test_notary_sign; test_nonint_step ]

let run () =
  Report.print_header "Wall-clock (Bechamel, monotonic clock)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" ~fmt:"%s %s" [ test ]) in
      let analysed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some [ v ] -> Printf.sprintf "%12.1f ns/run" v
            | _ -> "n/a"
          in
          Printf.printf "%-28s %s\n" name est)
        analysed)
    all_tests
