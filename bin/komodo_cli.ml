(* komodo: command-line driver for the Komodo model.

   Subcommands:
     run       boot the platform and run a named demo enclave
     trace     run an enclave through its full lifecycle, emitting a
               JSONL telemetry trace and checking it against the spec
     attest    run an enclave and print/check its attestation
     inspect   boot, load, and dump the PageDB and memory layout
     notary    drive the notary enclave over a document file
     verify    check the noninterference harness at a chosen scale
     explore   bounded exhaustive model check of the monitor lifecycle
     vault     sealed-storage fault campaigns over an adversarial block store
     serve     attestation-as-a-service over recycled enclave pools
     profile   span-profile a fixed-seed campaign (tree, quantiles, folded)
     bench     compare fresh BENCH_*.json against a committed baseline

   Examples:
     komodo run --program sum --arg 100
     komodo trace --program sum --arg 100 --trace-out t.jsonl --metrics
     komodo notary --document README.md
     komodo verify --seeds 10 --ops 100
     komodo inspect *)

module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Ptable = Komodo_machine.Ptable
module Os = Komodo_os.Os
module Loader = Komodo_os.Loader
module Image = Komodo_os.Image
module Errors = Komodo_core.Errors
module Monitor = Komodo_core.Monitor
module Pagedb = Komodo_core.Pagedb
module Mapping = Komodo_core.Mapping
module Uprog = Komodo_user.Uprog
module Progs = Komodo_user.Progs
module Notary = Komodo_user.Notary
module Sha256 = Komodo_crypto.Sha256
module Sink = Komodo_telemetry.Sink
module Metrics = Komodo_telemetry.Metrics
module Json = Komodo_telemetry.Json
module Span = Komodo_telemetry.Span
module Hist = Komodo_telemetry.Hist
module Campaign = Komodo_campaign.Campaign
module Progress = Komodo_campaign.Progress
module Drive = Komodo_fault.Drive
open Cmdliner

let programs =
  [
    ("add", (Progs.add_args, "add the three entry arguments"));
    ("sum", (Progs.sum_to_n, "sum the integers 1..arg1"));
    ("random", (Progs.random_word, "fetch one word from the monitor RNG"));
    ("attest", (Progs.attest_zero, "attest to 32 zero bytes"));
    ("fault", (Progs.fault_unmapped, "dereference an unmapped address"));
    ("spin", (Progs.spin_forever, "loop until interrupted"));
  ]

let seed_arg =
  Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~docv:"SEED" ~doc:"Boot-time RNG seed.")

let npages_arg =
  Arg.(value & opt int 64 & info [ "pages" ] ~docv:"N" ~doc:"Secure pages reserved at boot.")

(* -v / --verbosity (from logs.cli): the global level also drives the
   two per-module sources — the monitor's SMC call trace and the
   telemetry stream — so `-v -v` surfaces both without code changes. *)
let verbosity = Logs_cli.level ()

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level;
  Logs.Src.set_level Komodo_core.Smc.log_src level;
  Logs.Src.set_level Sink.log_src level

(* -- the exit-code contract and shared trace IO ---------------------------

   Every checking subcommand (check, fault, vault, smp, explore) exits
     0  clean, or an armed --bug/--mutate self-test caught its bug
     1  an armed --bug/--mutate self-test survived
     2  a harness or usage error: bad flag value, unreadable trace,
        unwritable output file
     4  a finding about the monitor (divergence or violation) *)

let exit_survived = 1
let exit_usage = 2
let exit_finding = 4

let fail_usage cmd fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "komodo %s: %s\n" cmd msg;
      exit exit_usage)
    fmt

(* A finding is expected exactly when a self-test is armed. *)
let verdict ~armed ~found =
  match (found, armed) with
  | true, false -> exit_finding
  | false, true -> exit_survived
  | _ -> 0

let read_lines ~cmd path =
  try In_channel.with_open_text path In_channel.input_lines
  with Sys_error e -> fail_usage cmd "cannot replay %s: %s" path e

let write_file ~cmd path contents =
  try Out_channel.with_open_text path (fun oc -> output_string oc contents)
  with Sys_error e -> fail_usage cmd "cannot write %s: %s" path e

let unlines lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

let write_json_file ~cmd path j =
  write_file ~cmd path (Json.to_string j ^ "\n");
  Printf.eprintf "[wrote %s]\n%!" path

(* [--bug]/[--mutate] style names and comma-separated class lists. *)
let parse_name ~cmd ~what of_string = function
  | None -> None
  | Some name -> (
      match of_string name with
      | Some v -> Some v
      | None -> fail_usage cmd "unknown %s %S" what name)

let parse_list ~cmd ~what of_string s =
  List.map
    (fun name ->
      match of_string (String.trim name) with
      | Some v -> v
      | None -> fail_usage cmd "unknown %s %S" what name)
    (String.split_on_char ',' s)

(* -j/--jobs for the campaign subcommands: 0 (the default) means one
   worker per recommended domain. Whatever the value, the report is
   byte-identical — parallelism only changes wallclock. *)
let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the campaign (default: the machine's recommended \
           domain count). Reports are byte-identical at any -j: trial seeds are \
           derived from (seed, trial index), failures report the lowest failing \
           trial, and coverage merges are order-insensitive.")

let int_arg name ~default ~doc =
  Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)

let name_arg name ~docv ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)

let save_trace_arg ~doc = name_arg "save-trace" ~docv:"FILE" ~doc

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write a JSONL telemetry trace of every monitor crossing to $(docv) ('-' for stdout).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the telemetry metrics registry (call counts, error counts, cycle histograms) as JSON on exit.")

(* Build the monitor sink for the common --trace-out/--metrics pair.
   Returns the sink, the registry when --metrics was given, and a
   [finish] closing the trace channel and printing the metrics dump. *)
let telemetry_setup ~trace_out ~metrics =
  let reg = if metrics then Some (Metrics.create ()) else None in
  let oc =
    match trace_out with
    | None -> None
    | Some "-" -> Some stdout
    | Some path -> (
        try Some (open_out path)
        with Sys_error e ->
          Printf.eprintf "komodo: cannot open trace file: %s\n" e;
          exit 2)
  in
  let sinks =
    (match oc with Some oc -> [ Sink.jsonl oc ] | None -> [])
    @ (match reg with Some reg -> [ Metrics.sink reg ] | None -> [])
  in
  let finish () =
    (match oc with
    | Some oc when oc == stdout -> flush stdout
    | Some oc -> close_out oc
    | None -> ());
    match reg with
    | Some reg ->
        (* Keep stdout clean JSONL when the trace itself goes there. *)
        let chan = if trace_out = Some "-" then stderr else stdout in
        output_string chan (Json.to_string (Metrics.dump reg));
        output_char chan '\n';
        flush chan
    | None -> ()
  in
  (Sink.fanout sinks, reg, finish)

let load_simple ?(spares = 0) os prog =
  match Loader.load os (Image.program ~spares ~name:"cli" prog) with
  | Ok r -> r
  | Error e -> failwith (Format.asprintf "load failed: %a" Loader.pp_error e)

(* -- run -------------------------------------------------------------- *)

let program_arg =
  Arg.(
    value
    & opt (enum (List.map (fun (n, (p, _)) -> (n, p)) programs)) Progs.add_args
    & info [ "program"; "p" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Demo program to run (%s)."
             (String.concat ", " (List.map fst programs))))

let args_arg =
  Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"N" ~doc:"Entry argument (up to 3).")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "irq-budget" ] ~docv:"STEPS" ~doc:"Interrupt after this many user steps.")

let file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "file"; "f" ] ~docv:"PROG.kasm"
        ~doc:"Assemble and run a .kasm program instead of a built-in demo.")

let spares_arg =
  Arg.(
    value & opt int 0
    & info [ "spares" ] ~docv:"N"
        ~doc:
          "Grant N spare pages to the enclave; their page numbers are \
           appended to the entry arguments (a1 = first spare, ...).")

let load_program ~file prog =
  match file with
  | None -> prog
  | Some path -> (
      let ic = open_in_bin path in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Komodo_user.Kasm.parse src with
      | Ok prog -> prog
      | Error e -> failwith (Format.asprintf "%s: %a" path Komodo_user.Kasm.pp_error e))

(* The body [run] and [trace] share: boot, load, pass the spare page
   numbers ahead of the --arg values (so .kasm programs that manage
   dynamic memory find them in r0...), then enter and resume until the
   thread ends or hits Os.run_thread's cycle bound. Returns the OS, the
   load handle, the result and the cycles the run took. *)
let run_program ?exec ~sink ~seed ~npages ~spares ~budget prog args =
  let os = Os.boot ~seed ~npages ~sink ?exec () in
  let os, h = load_simple ~spares os prog in
  let thread = List.hd h.Loader.threads in
  let args = List.map Word.of_int (h.Loader.spares @ args) in
  let nth n = try List.nth args n with _ -> Word.zero in
  let c0 = Os.cycles os in
  let os, err, v = Os.run_thread ?budget os ~thread ~args:(nth 0, nth 1, nth 2) in
  (os, h, err, v, Os.cycles os - c0)

let run_cmd =
  let run level seed npages prog args budget file spares trace_out metrics =
    setup_logs level;
    let prog = load_program ~file prog in
    let sink, _reg, finish = telemetry_setup ~trace_out ~metrics in
    let _os, h, err, v, cycles =
      run_program ~sink ~seed ~npages ~spares ~budget prog args
    in
    if h.Loader.spares <> [] then
      Printf.printf "spares granted: %s\n"
        (String.concat ", " (List.map string_of_int h.Loader.spares));
    Printf.printf "result: %s, value = %d (0x%x)\n" (Errors.show err) (Word.to_int v)
      (Word.to_int v);
    Printf.printf "cycles: %d (%.3f ms at 900 MHz)\n" cycles
      (Komodo_machine.Cost.cycles_to_ms cycles);
    finish ();
    if Errors.is_success err || Errors.equal err Errors.Fault then 0 else 1
  in
  Cmd.v (Cmd.info "run" ~doc:"Boot the platform and run a demo enclave")
    Term.(
      const run $ verbosity $ seed_arg $ npages_arg $ program_arg $ args_arg $ budget_arg
      $ file_arg $ spares_arg $ trace_out_arg $ metrics_arg)

(* -- trace ------------------------------------------------------------- *)

let trace_cmd =
  let pretty =
    Arg.(
      value & flag
      & info [ "pretty" ] ~doc:"Also pretty-print each event to stderr as it happens.")
  in
  let run level seed npages prog args budget file spares trace_out metrics pretty =
    setup_logs level;
    let prog = load_program ~file prog in
    (* The trace defaults to stdout so `komodo trace -p sum` is useful
       bare; --trace-out FILE redirects it. *)
    let trace_out = Some (Option.value trace_out ~default:"-") in
    let sink, reg, finish = telemetry_setup ~trace_out ~metrics in
    (* Keep a copy of the stream in memory for the spec replay, and —
       when metrics are on — count retired user instructions via the
       machine layer's probe. *)
    let collect_sink, collected = Sink.collect () in
    let exec =
      match reg with
      | None -> Komodo_user.Verifier.executor ()
      | Some reg ->
          Komodo_user.Verifier.executor
            ~probe:(fun ~steps -> Metrics.add_count reg "user_instructions" steps)
            ()
    in
    let sinks = [ sink; collect_sink ] in
    let sinks = if pretty then Sink.console Format.err_formatter :: sinks else sinks in
    let os, h, err, v, _ =
      run_program ~exec ~sink:(Sink.fanout sinks) ~seed ~npages ~spares ~budget prog args
    in
    Printf.eprintf "result: %s, value = %d (0x%x)\n" (Errors.show err) (Word.to_int v)
      (Word.to_int v);
    (* Full Figure 3 arc: stop the enclave and reclaim every page, so
       the trace ends init -> ... -> enter -> exit -> stop -> remove. *)
    let _os, terr = Os.teardown os ~addrspace:h.Loader.addrspace in
    finish ();
    (* The same spec replay as `komodo check --replay`. *)
    let r = Komodo_spec.Trace_check.replay ~npages (collected ()) in
    List.iter (Printf.eprintf "check: %s\n") (Komodo_spec.Trace_check.render r);
    (* Distinct exit codes so CI can gate on the check specifically:
       0 clean, 1 enclave/teardown error, 3 the spec replay rejected. *)
    if r.violations <> [] then 3
    else if Errors.is_success err && Errors.is_success terr then 0
    else 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run an enclave through its full lifecycle (init, finalise, enter, stop, remove), \
          emitting a JSONL telemetry trace and checking it against the spec (the same \
          replay as check --replay). Exits 0 on a clean run, 1 on an enclave error, 3 \
          when the spec replay rejects the trace.")
    Term.(
      const run $ verbosity $ seed_arg $ npages_arg $ program_arg $ args_arg $ budget_arg
      $ file_arg $ spares_arg $ trace_out_arg $ metrics_arg $ pretty)

(* -- attest ----------------------------------------------------------- *)

let attest_cmd =
  let run level seed npages =
    setup_logs level;
    let os = Os.boot ~seed ~npages () in
    let os, h = load_simple os Progs.attest_zero in
    let os, err, v = Os.enter os ~thread:(List.hd h.Loader.threads) ~args:(Word.zero, Word.zero, Word.zero) in
    Printf.printf "enclave measurement: %s\n" (Sha256.to_hex h.Loader.measurement);
    Printf.printf "enclave ran: %s; first MAC word: 0x%08x\n" (Errors.show err) (Word.to_int v);
    (* Recompute with the boot secret to check. *)
    let data = String.make 32 '\000' in
    let mac =
      Komodo_core.Attest.create ~key:os.Os.mon.Monitor.attest_key
        ~measurement:h.Loader.measurement ~data
    in
    let expected = Word.to_int (List.hd (Sha256.digest_words_of mac)) in
    Printf.printf "attestation %s (expected 0x%08x)\n"
      (if expected = Word.to_int v then "VALID" else "INVALID")
      expected;
    if expected = Word.to_int v then 0 else 1
  in
  Cmd.v
    (Cmd.info "attest" ~doc:"Run an attesting enclave and check its MAC against the boot secret")
    Term.(const run $ verbosity $ seed_arg $ npages_arg)

(* -- inspect ----------------------------------------------------------- *)

let inspect_cmd =
  let run level seed npages =
    setup_logs level;
    let os = Os.boot ~seed ~npages () in
    let os, _ = load_simple os Progs.add_args in
    let os, h2 = load_simple os Progs.sum_to_n in
    Printf.printf "platform: %d secure pages at %s; monitor image at %s\n" npages
      (Word.show Komodo_tz.Layout.secure_region_base)
      (Word.show Komodo_tz.Layout.monitor_image_base);
    Printf.printf "attestation key: %s...\n"
      (String.sub (Sha256.to_hex os.Os.mon.Monitor.attest_key) 0 16);
    print_endline "PageDB:";
    Format.printf "%a@." Pagedb.pp os.Os.mon.Monitor.pagedb;
    Printf.printf "second enclave measurement: %s\n" (Sha256.to_hex h2.Loader.measurement);
    let wf =
      Pagedb.wf os.Os.mon.Monitor.plat os.Os.mon.Monitor.mach.State.mem
        os.Os.mon.Monitor.pagedb
    in
    Printf.printf "PageDB well-formed: %b\n" wf;
    if wf then 0 else 1
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Dump the PageDB and platform layout of a loaded system")
    Term.(const run $ verbosity $ seed_arg $ npages_arg)

(* -- notary ------------------------------------------------------------ *)

let notary_cmd =
  let document =
    Arg.(
      value
      & opt (some file) None
      & info [ "document"; "d" ] ~docv:"FILE" ~doc:"File to notarise (default: a demo string).")
  in
  let run level seed npages document =
    setup_logs level;
    let os = Os.boot ~seed ~npages () in
    let img = Komodo_os.Notary_image.make ~input_pages:64 in
    let os, h =
      match Loader.load os img with
      | Ok r -> r
      | Error e -> failwith (Format.asprintf "notary load: %a" Loader.pp_error e)
    in
    let th = List.hd h.Loader.threads in
    let os, err, _ = Os.enter os ~thread:th ~args:(Word.zero, Word.zero, Word.zero) in
    assert (Errors.is_success err);
    let doc =
      match document with
      | Some path ->
          let ic = open_in_bin path in
          let n = min (in_channel_length ic) (60 * Ptable.page_size) in
          let s = really_input_string ic n in
          close_in ic;
          s
      | None -> "komodo notary demo document"
    in
    let padded = doc ^ String.make ((4 - (String.length doc mod 4)) mod 4) '\000' in
    let os = Os.write_bytes os Os.document_base padded in
    let os, err, stamp =
      Os.enter os ~thread:th
        ~args:(Word.of_int Notary.cmd_notarize, Notary.input_va, Word.of_int (String.length padded))
    in
    if not (Errors.is_success err) then begin
      Printf.printf "notarise failed: %s\n" (Errors.show err);
      1
    end
    else begin
      let signature = Os.read_bytes os Os.shared_base 128 in
      Printf.printf "document: %d bytes\n" (String.length doc);
      Printf.printf "counter stamp: %d\n" (Word.to_int stamp);
      Printf.printf "signature: %s...\n" (String.sub (Sha256.to_hex signature) 0 32);
      Printf.printf "measurement: %s\n" (Sha256.to_hex h.Loader.measurement);
      0
    end
  in
  Cmd.v (Cmd.info "notary" ~doc:"Notarise a document with the notary enclave")
    Term.(const run $ verbosity $ seed_arg $ npages_arg $ document)

(* -- asm ------------------------------------------------------------------ *)

let asm_cmd =
  let file =
    Arg.(
      required
      & opt (some file) None
      & info [ "file"; "f" ] ~docv:"PROG.kasm" ~doc:"Program to assemble.")
  in
  let run file =
    let ic = open_in_bin file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Komodo_user.Kasm.parse src with
    | Error e ->
        Format.printf "%s: %a@." file Komodo_user.Kasm.pp_error e;
        1
    | Ok prog ->
        let flat = Komodo_machine.Insn.flatten prog in
        let words = Uprog.code_words prog in
        let pages = Uprog.to_page_images words in
        Printf.printf "%s: %d statements, %d flat ops, %d words, %d page(s)
" file
          (List.length prog) (Array.length flat) (List.length words)
          (List.length pages);
        (* The measurement a canonical single-thread image of this
           program would carry: what a verifier should expect. *)
        Printf.printf "enclave measurement (code @0, one thread): %s
"
          (Sha256.to_hex (Image.expected_measurement (Image.program ~name:file prog)));
        print_endline "disassembly:";
        print_string (Komodo_user.Kasm.print prog);
        0
  in
  Cmd.v
    (Cmd.info "asm"
       ~doc:"Assemble a .kasm program, report its size and expected measurement")
    Term.(const run $ file)

(* -- campaign observability ---------------------------------------------

   --progress / --progress-out / --profile-out on `check` and `fault`.
   Progress renders to stderr and/or mirrors JSONL snapshots; profiles
   aggregate per-trial span trees into a komodo-profile/1 JSON file.
   Both are pure observers: stdout (and the campaign report) stays
   byte-identical whether they are on or off. *)

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Stream live campaign progress to stderr: trials done, trials/sec,            coverage growth, fault-class hit counts. Never touches stdout.")

let progress_out_arg =
  name_arg "progress-out" ~docv:"FILE"
    ~doc:"Mirror progress snapshots to $(docv), one komodo-progress/1 JSON object per line."

let profile_out_arg =
  name_arg "profile-out" ~docv:"FILE"
    ~doc:
      "Record per-trial span trees (monitor call -> validate/commit -> \
       hash/ptwalk/exec) and write the aggregated profile to $(docv) as \
       komodo-profile/1 JSON."

let progress_setup ~progress ~progress_out ~label ~total =
  if (not progress) && progress_out = None then (None, fun () -> ())
  else
    let jsonl =
      match progress_out with
      | None -> None
      | Some path -> (
          try Some (open_out path)
          with Sys_error e -> fail_usage label "cannot open progress file: %s" e)
    in
    let p =
      Progress.create ?jsonl ~live:progress ~now:Unix.gettimeofday ~label ~total ()
    in
    (Some p, fun () -> Option.iter close_out jsonl)

let rec agg_to_json (a : Span.agg) =
  Json.Obj
    [
      ("name", Json.Str a.Span.a_name);
      ("count", Json.Int a.Span.a_count);
      ("cycles", Json.Int a.Span.a_cycles);
      ("wall_ns", Json.Int a.Span.a_wall_ns);
      ("children", Json.List (List.map agg_to_json a.Span.a_children));
    ]

let quantiles_json spans =
  Json.Obj
    (List.map
       (fun (name, h) ->
         ( name,
           Json.Obj
             [
               ("count", Json.Int (Hist.count h));
               ("p50", Json.Int (Hist.p50 h));
               ("p90", Json.Int (Hist.p90 h));
               ("p99", Json.Int (Hist.p99 h));
               ("p999", Json.Int (Hist.p999 h));
               ("max", Json.Int (Hist.max_value h));
             ] ))
       (Span.durations spans))

let profile_json ~label ~seed ~trials spans =
  Json.Obj
    [
      ("schema", Json.Str "komodo-profile/1");
      ("label", Json.Str label);
      ("seed", Json.Int seed);
      ("trials", Json.Int trials);
      ("total_spans", Json.Int (Span.total_spans spans));
      ("tree", Json.List (List.map agg_to_json (Span.aggregate spans)));
      ("quantiles", quantiles_json spans);
    ]

(* -- seed-per-trial campaigns (check, fault, vault, smp) ------------------

   One command body for every {!Komodo_campaign.Driver.DRIVER}: --replay
   reads a trace and re-runs it; otherwise the campaign runs on the
   domain pool, prints its summary and, on a finding, the shrunk trace,
   which --save-trace writes out. A kind brings only its own flags, as
   a term building its config. *)

module Campaign_cmd (D : Komodo_campaign.Driver.DRIVER) = struct
  module C = Komodo_campaign.Driver.Make (D)

  let replay config path =
    match D.trace_parse (read_lines ~cmd:D.name path) with
    | Error e -> fail_usage D.name "cannot replay %s: %s" path e
    | Ok trace -> (
        match D.replay config trace with
        | Ok lines ->
            List.iter print_endline lines;
            0
        | Error lines ->
            List.iter print_endline lines;
            exit_finding)

  (* The summary, the verdict and (on a finding) the shrunk trace. *)
  let report config o ~save =
    List.iter print_endline (D.summary config o);
    let m = D.messages and armed = D.armed config in
    match D.found o with
    | None ->
        print_endline (if armed then m.survived else m.clean);
        verdict ~armed ~found:false
    | Some (tseed, shrunk, v) ->
        Printf.printf "%s (trial seed %d), shrunk to %d %s:\n" m.finding tseed
          (List.length shrunk) m.steps;
        List.iteri (fun i op -> Printf.printf "  %2d. %s\n" i (D.pp_op op)) shrunk;
        print_endline (D.pp_violation v);
        (match (save, D.trace_lines) with
        | Some path, Some lines ->
            write_file ~cmd:D.name path (unlines (lines config ~seed:tseed shrunk));
            Printf.printf "shrunk campaign saved to %s\n" path
        | _ -> ());
        if armed then print_endline m.caught;
        verdict ~armed ~found:true

  (* [spans] offers --profile-out for kinds that record span trees. *)
  let cmd ~doc ~trials:(default_trials, trials_doc)
      ?(replay_doc =
        Printf.sprintf
          "Re-run the %s campaign trace in $(docv) instead of generating trials."
          D.name) ?spans (config : (profile:bool -> D.config) Term.t) =
    let trials = int_arg "trials" ~default:default_trials ~doc:trials_doc in
    let seed =
      Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed.")
    in
    let replay_arg = name_arg "replay" ~docv:"FILE" ~doc:replay_doc in
    let save =
      if Option.is_none D.trace_lines then Term.const None
      else
        save_trace_arg
          ~doc:"On violation, save the shrunk campaign as a replayable JSONL trace."
    in
    let profile_out = if Option.is_none spans then Term.const None else profile_out_arg in
    let run level config trials seed replay_path save jobs progress progress_out
        profile_out =
      setup_logs level;
      let config = config ~profile:(profile_out <> None) in
      match replay_path with
      | Some path -> replay config path
      | None ->
          let prog, prog_close =
            progress_setup ~progress ~progress_out ~label:D.name ~total:trials
          in
          let o = C.run ?progress:prog ~jobs config ~trials ~seed in
          prog_close ();
          (match (profile_out, spans) with
          | Some path, Some spans ->
              write_json_file ~cmd:D.name path
                (profile_json ~label:D.name ~seed ~trials (spans o))
          | _ -> ());
          report config o ~save
    in
    Cmd.v (Cmd.info D.name ~doc)
      Term.(
        const run $ verbosity $ config $ trials $ seed $ replay_arg $ save
        $ jobs_arg $ progress_arg $ progress_out_arg $ profile_out)
end

let check_cmd =
  let module K = Komodo_campaign.Kinds.Check in
  let config pages ops mutate metrics ~profile =
    let mutate =
      parse_name ~cmd:"check" ~what:"mutation"
        Komodo_spec.Aspec.mutation_of_string mutate
    in
    { K.mutate; npages = pages; ops; metrics; profile; clock = None }
  in
  let module Cmd = Campaign_cmd (K) in
  Cmd.cmd ~trials:(100, "Differential trials to run.")
    ~replay_doc:
      "Instead of generating trials, re-check the JSONL trace in $(docv) \
       against the spec: a telemetry trace from komodo trace, or a \
       counterexample saved by komodo explore."
    ~spans:(fun (o : K.outcome) -> o.spans)
    ~doc:
      "Differentially check the monitor against the abstract spec (adversarial call \
       sequences, lockstep comparison, shrinking), or --replay a trace. Campaigns run \
       trials on a domain pool (-j) with byte-identical reports at any worker count. \
       Exits 0 clean, 4 on a divergence (or a replayed violation), 1 if a --mutate \
       self-test survives, 2 on usage errors."
    Term.(
      const config
      $ int_arg "pages" ~default:40
          ~doc:"Secure pages per trial world (and expected by --replay)."
      $ int_arg "ops" ~default:40 ~doc:"Adversarial ops per trial."
      $ name_arg "mutate" ~docv:"NAME"
          ~doc:
            "Run against a deliberately broken spec variant (self-test; expects a \
             divergence). One of: no-alias-check, no-monitor-image-check, \
             drop-refcount."
      $ metrics_arg)

let fault_cmd =
  let module K = Komodo_campaign.Kinds.Fault in
  let config pages ops faults bug ~profile =
    let faults = parse_list ~cmd:"fault" ~what:"fault class" Drive.class_of_string faults in
    let bug = parse_name ~cmd:"fault" ~what:"bug" Monitor.bug_of_string bug in
    { K.npages = pages; ops; faults; bug; profile; clock = None }
  in
  let module Cmd = Campaign_cmd (K) in
  Cmd.cmd ~trials:(25, "Fault-injection trials to run.")
    ~spans:(fun (o : K.outcome) -> o.spans)
    ~doc:
      "Inject adversarial faults (spurious interrupts, concurrent-core memory writes, \
       entropy exhaustion, SMC storms, OS crash/restarts) while differentially checking \
       the monitor, asserting PageDB invariants and transactional atomicity after every \
       call. Trials run on a domain pool (-j) with byte-identical reports at any worker \
       count. Exits 0 on a clean campaign, 4 on an atomicity/invariant violation, 1 \
       when an armed --bug survives, 2 on setup errors."
    Term.(
      const config
      $ int_arg "pages" ~default:40 ~doc:"Secure pages per trial world."
      $ int_arg "ops" ~default:40
          ~doc:"Adversarial ops per trial (before fault decoration)."
      $ Arg.(
          value
          & opt string "irq,mem,rng,storm,crash"
          & info [ "faults" ] ~docv:"CLASSES"
              ~doc:"Comma-separated fault classes to arm: irq, mem, rng, storm, crash.")
      $ name_arg "bug" ~docv:"NAME"
          ~doc:
            "Re-enable a deliberate partial-mutation bug in the monitor (self-test; \
             expects the campaign to catch it). One of: partial_map_secure, \
             partial_remove.")

let vault_cmd =
  let module K = Komodo_campaign.Kinds.Vault in
  let config pages ops classes bug ~profile:_ =
    let classes =
      parse_list ~cmd:"vault" ~what:"storage class"
        Komodo_fault.Vaultdrive.class_of_string classes
    in
    let bug = parse_name ~cmd:"vault" ~what:"bug" Komodo_user.Vault.bug_of_string bug in
    { K.npages = pages; ops; classes; bug }
  in
  let module Cmd = Campaign_cmd (K) in
  Cmd.cmd ~trials:(100, "Storage-fault trials to run.")
    ~doc:
      "Run sealed-storage fault campaigns: a vault enclave seals its state \
       to an adversarial block store which the campaign corrupts, rolls \
       back, reorders, truncates and wipes — across OS crashes and full \
       reboots — judging every unseal against the sealed-storage theorem. \
       Trials run on a domain pool (-j) with byte-identical reports at any \
       worker count. Exits 0 on a clean campaign, 4 on a violation (silent \
       corruption, false unseal, undetected rollback), 1 when an armed \
       --bug survives, 2 on setup errors."
    Term.(
      const config
      $ int_arg "pages" ~default:48 ~doc:"Secure pages per trial world."
      $ int_arg "ops" ~default:24
          ~doc:"Vault operations per trial (before storage-fault decoration)."
      $ Arg.(
          value
          & opt string "tamper,replay,crash"
          & info [ "classes" ] ~docv:"CLASSES"
              ~doc:"Comma-separated storage fault classes to arm: tamper, replay, crash.")
      $ name_arg "bug" ~docv:"NAME"
          ~doc:
            "Re-enable a deliberate detection-disable bug in the vault enclave \
             (self-test; expects the campaign to catch it). One of: \
             accept_tampered, accept_stale.")

let smp_cmd =
  let module K = Komodo_campaign.Kinds.Smp in
  let config pages cpus ops bug faults ~profile:_ =
    let bug = parse_name ~cmd:"smp" ~what:"bug" Komodo_os.Smp.bug_of_string bug in
    { K.npages = pages; cpus; ops; bug; faults }
  in
  let module Cmd = Campaign_cmd (K) in
  Cmd.cmd ~trials:(200, "Multi-core trials to run.")
    ~doc:
      "Race seeded per-CPU monitor-call streams through the multi-core \
       stepper (per-CPU register banks, fine-grained per-page locks, \
       seeded interleaving scheduler) and judge every run with three \
       oracles: deadlock freedom, PageDB invariants, and \
       linearisability against the sequential abstract spec. Trials run \
       on a domain pool (-j) with byte-identical reports at any worker \
       count. Exits 0 on a clean campaign (or a caught --bug), 4 on a \
       violation with a shrunk minimal trace, 1 when an armed --bug \
       survives, 2 on setup errors."
    Term.(
      const config
      $ int_arg "pages" ~default:32 ~doc:"Secure pages per trial world."
      $ int_arg "cpus" ~default:4 ~doc:"Cores racing in each trial."
      $ int_arg "ops" ~default:8 ~doc:"Monitor calls per CPU per trial."
      $ name_arg "bug" ~docv:"NAME"
          ~doc:
            "Re-enable a deliberate lock-discipline bug in the stepper \
             (self-test; expects the campaign to catch it). One of: \
             missing_page_lock, lock_inversion."
      $ Arg.(
          value & flag
          & info [ "faults" ]
              ~doc:
                "Also fire the fault injector at lock acquire/release boundaries \
                 (insecure-memory writes, interrupts, RNG glitches); the campaign \
                 must stay clean."))

(* -- explore ------------------------------------------------------------

   Not a seed-per-trial campaign (BFS levels, not trials), so it keeps
   its own body and shares only the flag, trace-writing and exit-code
   helpers above. *)

let explore_cmd =
  let module Explore = Komodo_spec.Explore in
  let pages =
    int_arg "pages" ~default:6
      ~doc:
        "Secure pages in the explored world (at least 6 — the prelude \
         occupies pages 0-5; worlds above 10 pages use a symmetry-reduced \
         page-argument pool)."
  in
  let depth =
    int_arg "depth" ~default:6
      ~doc:"BFS depth bound, in monitor calls beyond the prelude."
  in
  let explore_seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Concrete-replay seed stamped into counterexample traces (the \
             search itself is exhaustive, not randomised).")
  in
  let mutate =
    name_arg "mutate" ~docv:"NAME"
      ~doc:
        "Explore a deliberately broken spec variant (self-test; expects a \
         violation). One of: no-alias-check, no-monitor-image-check, \
         drop-refcount."
  in
  let save =
    save_trace_arg
      ~doc:
        "On violation, save the shortest counterexample as a \
         komodo-check-trace/1 JSONL file, replayable with komodo check \
         --replay (exit 4 on the reproduced divergence)."
  in
  let run level pages depth seed mutate save jobs progress progress_out =
    setup_logs level;
    let mutate =
      parse_name ~cmd:"explore" ~what:"mutation"
        Komodo_spec.Aspec.mutation_of_string mutate
    in
    let config = { Explore.pages; depth; seed; mutate } in
    let prog, prog_close =
      progress_setup ~progress ~progress_out ~label:"explore" ~total:depth
    in
    let r =
      match Komodo_campaign.Campaign.explore ?progress:prog ~jobs ~config () with
      | r -> r
      | exception Invalid_argument msg -> fail_usage "explore" "%s" msg
    in
    prog_close ();
    Printf.printf "explored %d states, %d edges checked (%d pages, depth %d)\n"
      r.Explore.x_states r.Explore.x_edges pages depth;
    Printf.printf "new states per level: %s\n"
      (String.concat " " (List.map string_of_int r.Explore.x_levels));
    List.iter print_endline (Komodo_spec.Cover.report r.Explore.x_cover);
    let armed = mutate <> None in
    match r.Explore.x_violation with
    | None ->
        print_endline
          "no violation: every explored edge satisfies the lifecycle properties";
        if armed then
          print_endline "MUTATION SURVIVED: the explorer failed its self-test";
        verdict ~armed ~found:false
    | Some v ->
        List.iter print_endline (Explore.render_violation v);
        Option.iter
          (fun path ->
            write_file ~cmd:"explore" path (unlines (Explore.trace_lines config v));
            Printf.eprintf "[wrote %s]\n%!" path)
          save;
        if armed then print_endline "mutation caught: explorer self-test passed";
        verdict ~armed ~found:true
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively model-check the monitor lifecycle: BFS over every \
          SMC/SVC sequence of the abstract spec up to a depth bound, checking \
          error priorities, PageDB invariants, measurement monotonicity and \
          declassification on every edge. Reports are byte-identical at any \
          -j; violations emit a shortest-path trace replayable with komodo \
          check --replay. Exits 0 clean, 4 on a violation, 1 if a --mutate \
          self-test survives, 2 on usage errors.")
    Term.(
      const run $ verbosity $ pages $ depth $ explore_seed $ mutate $ save
      $ jobs_arg $ progress_arg $ progress_out_arg)

(* -- serve --------------------------------------------------------------- *)

let serve_cmd =
  let module Serve = Komodo_serve.Serve in
  let module Workload = Komodo_serve.Workload in
  let module Backpressure = Komodo_serve.Backpressure in
  let module Report = Komodo_serve.Report in
  let d = Serve.defaults in
  let sessions =
    Arg.(
      value & opt int d.Serve.sessions
      & info [ "sessions" ] ~docv:"N" ~doc:"Total client sessions to simulate.")
  in
  let sseed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed.")
  in
  let pool =
    Arg.(
      value & opt int d.Serve.slots
      & info [ "pool" ] ~docv:"N"
          ~doc:
            "Enclave pool slots per shard (clamped to the shard world's secure-page \
             budget; the clamp is reported).")
  in
  let recycle =
    Arg.(
      value & opt int d.Serve.recycle
      & info [ "recycle" ] ~docv:"N"
          ~doc:
            "Tear down and rebuild a slot's enclave every N sessions (the full \
             Create..Remove lifecycle, charged in model cycles); 0 never recycles.")
  in
  let queue =
    Arg.(
      value & opt int d.Serve.queue
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue capacity per shard; a full queue sheds arrivals.")
  in
  let deadline =
    Arg.(
      value & opt int 0
      & info [ "deadline" ] ~docv:"CYCLES"
          ~doc:
            "Shed queued sessions that waited more than $(docv) model cycles \
             (measured at dispatch); 0 disables the deadline.")
  in
  let arrival =
    Arg.(
      value
      & opt (enum [ ("poisson", Workload.Poisson); ("uniform", Workload.Uniform);
                    ("burst", Workload.Burst) ]) Workload.Poisson
      & info [ "arrival" ] ~docv:"DIST"
          ~doc:"Open-loop arrival process: $(b,poisson), $(b,uniform) or $(b,burst).")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("open", `Open); ("closed", `Closed) ]) `Open
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "$(b,open): arrivals ignore completions (open loop at --gap). \
             $(b,closed): --clients callers each reissue --think cycles after \
             their previous session completes.")
  in
  let clients =
    Arg.(
      value & opt int 64
      & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop client count.")
  in
  let think =
    Arg.(
      value & opt int 50_000
      & info [ "think" ] ~docv:"CYCLES" ~doc:"Closed-loop mean think time, model cycles.")
  in
  let gap =
    Arg.(
      value & opt int d.Serve.gap
      & info [ "gap" ] ~docv:"CYCLES"
          ~doc:"Open-loop mean inter-arrival gap in model cycles (the offered load).")
  in
  let shard_sessions =
    Arg.(
      value & opt int d.Serve.shard_sessions
      & info [ "shard-sessions" ] ~docv:"N"
          ~doc:
            "Sessions per shard. The shard count is a pure function of \
             --sessions and this value — never of -j — so reports are \
             byte-identical at any worker count.")
  in
  let everify =
    Arg.(
      value & opt int d.Serve.everify
      & info [ "enclave-verify" ] ~docv:"N"
          ~doc:
            "Route every Nth session's MAC through the in-enclave verifier \
             (Verify SVC) as well; 0 keeps verification host-side only.")
  in
  let spages =
    Arg.(
      value & opt int d.Serve.npages
      & info [ "pages" ] ~docv:"N" ~doc:"Secure pages per shard world.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report as komodo-serve/1 JSON to $(docv).")
  in
  let run level sessions seed pool recycle queue deadline arrival mode clients
      think gap shard_sessions everify spages jobs progress progress_out json_out =
    setup_logs level;
    if sessions <= 0 || shard_sessions <= 0 || pool <= 0 || queue < 0
       || recycle < 0 || deadline < 0 || gap <= 0 || everify < 0
    then fail_usage "serve" "counts must be positive (capacities non-negative)";
    if mode = `Closed && (clients <= 0 || think <= 0) then
      fail_usage "serve" "closed loop needs positive --clients and --think";
    let cfg =
      {
        Serve.sessions;
        shard_sessions;
        slots = pool;
        recycle;
        queue;
        policy =
          (if deadline > 0 then Backpressure.Deadline deadline else Backpressure.Drop);
        mode =
          (match mode with
          | `Open -> Workload.Open arrival
          | `Closed -> Workload.Closed { clients; think });
        gap;
        everify;
        npages = spages;
      }
    in
    let nshards = Serve.shards ~sessions ~shard_sessions in
    let prog, prog_close =
      progress_setup ~progress ~progress_out ~label:"serve" ~total:nshards
    in
    let r =
      try Serve.run ?progress:prog ~jobs ~cfg ~seed ()
      with Failure m | Komodo_serve.Engine.Violation m ->
        prog_close ();
        fail_usage "serve" "%s" m
    in
    prog_close ();
    print_string (Komodo_serve.Report.render r);
    (match json_out with
    | Some path -> write_json_file ~cmd:"serve" path (Komodo_serve.Report.to_json r)
    | None -> ());
    if r.Report.verify_failures > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve attestation-as-a-service: multiplex up to millions of simulated \
          client sessions over recycled pools of notary/verifier enclaves, with \
          bounded admission queues and latency accounting in model cycles. \
          Sessions are sharded deterministically; the report is byte-identical \
          at any -j. Exits 0 on a clean run, 1 if any session's attestation \
          failed verification, 2 on setup errors.")
    Term.(
      const run $ verbosity $ sessions $ sseed $ pool $ recycle $ queue $ deadline
      $ arrival $ mode $ clients $ think $ gap $ shard_sessions $ everify $ spages
      $ jobs_arg $ progress_arg $ progress_out_arg $ json_out)

(* -- verify ------------------------------------------------------------- *)

let verify_cmd =
  let seeds = Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"N" ~doc:"Seed count.") in
  let ops = Arg.(value & opt int 60 & info [ "ops" ] ~docv:"N" ~doc:"Adversarial ops per seed.") in
  let run level seeds ops =
    setup_logs level;
    let lines, ok = Komodo_sec.Attacks.suite ~seeds ~ops in
    List.iter print_endline lines;
    if ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run the noninterference harness and attack library")
    Term.(const run $ verbosity $ seeds $ ops)


(* -- profile ------------------------------------------------------------- *)

let profile_cmd =
  let trials =
    Arg.(value & opt int 10 & info [ "trials" ] ~docv:"N" ~doc:"Trials in the profiled workload.")
  in
  let ops =
    Arg.(value & opt int 40 & info [ "ops" ] ~docv:"N" ~doc:"Adversarial ops per trial.")
  in
  let pseed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed (the whole profile is a function of it).")
  in
  let ppages =
    Arg.(value & opt int 40 & info [ "pages" ] ~docv:"N" ~doc:"Secure pages per trial world.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("check", `Check); ("fault", `Fault) ]) `Check
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Workload to profile: the differential $(b,check) campaign or the $(b,fault) campaign.")
  in
  let folded =
    Arg.(
      value
      & opt string "komodo-profile.folded"
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write folded stacks (one 'path;to;span cycles' line each) to \
             $(docv) — feed to flamegraph.pl or speedscope.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the komodo-profile/1 JSON profile to $(docv).")
  in
  let wall =
    Arg.(
      value & flag
      & info [ "wall" ]
          ~doc:
            "Attach a wallclock to the recorder. Wallclock attribution appears \
             only in the --json output; stdout stays cycles-only and \
             deterministic.")
  in
  let run level trials ops seed pages mode folded json_out wall jobs =
    setup_logs level;
    let clock = if wall then Some Unix.gettimeofday else None in
    let label, spans =
      match mode with
      | `Check ->
          let o =
            Campaign.check ~npages:pages ~ops_per_trial:ops ~profile:true ?clock
              ~jobs ~trials ~seed ()
          in
          ("check", o.Komodo_spec.Diff.spans)
      | `Fault ->
          let o =
            Campaign.fault ~npages:pages ~ops_per_trial:ops ~profile:true ?clock
              ~jobs ~faults:Drive.all_classes ~trials ~seed ()
          in
          ("fault", o.Drive.spans)
    in
    let agg = Span.aggregate spans in
    let total_cycles =
      List.fold_left (fun a n -> a + n.Span.sp_cycles) 0 spans
    in
    Printf.printf "profile: %s campaign, seed %d, %d trials, %d spans, %d modelled cycles\n\n"
      label seed trials (Span.total_spans spans) total_cycles;
    print_string (Span.render_tree agg);
    print_newline ();
    Printf.printf "%-28s %8s %10s %10s %10s %10s\n" "span" "count" "p50" "p90"
      "p99" "max";
    List.iter
      (fun (name, h) ->
        Printf.printf "%-28s %8d %10d %10d %10d %10d\n" name (Hist.count h)
          (Hist.p50 h) (Hist.p90 h) (Hist.p99 h) (Hist.max_value h))
      (Span.durations spans);
    write_file ~cmd:"profile" folded (Span.to_folded spans);
    Printf.eprintf "[wrote %s]\n%!" folded;
    (match json_out with
    | Some path ->
        write_json_file ~cmd:"profile" path (profile_json ~label ~seed ~trials spans)
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a fixed-seed campaign with the hierarchical span recorder: \
          print the aggregated span tree (modelled cycles, deterministic at \
          any -j) and per-span quantiles, and write flamegraph folded stacks. \
          Wallclock attribution is opt-in (--wall) and confined to the JSON \
          output.")
    Term.(
      const run $ verbosity $ trials $ ops $ pseed $ ppages $ mode $ folded
      $ json_out $ wall $ jobs_arg)

(* -- bench --compare ------------------------------------------------------

   Regression detector over the BENCH_*.json mirrors the bench
   executable emits. A mirror flattens to cells keyed by a path: the
   keys and list indices of an object mirror, or the (row label, column)
   of a {columns, rows} table. A cell is skipped only when a component
   of its path starts with [wall_] (the bench names every wallclock- or
   host-derived cell so where it makes it) or when it is the top-level
   [schema]. Every other cell is exact: it must match the baseline (or
   lie within --tolerance), and a cell on one side only is a regression
   too. Exit 0 clean, 1 on regression, 2 on schema/shape/IO problems. *)

let bench_schema = "komodo-bench/1"

(* 181.6, "181.6", "1.00x", "24.5%" -> numbers; "12/12" -> None. *)
let cell_number = function
  | Json.Int n -> Some (float_of_int n)
  | Json.Float f -> Some f
  | Json.Str s ->
      let s = String.trim s in
      let n = String.length s in
      let s = if n > 0 && (s.[n - 1] = 'x' || s.[n - 1] = '%') then String.sub s 0 (n - 1) else s in
      float_of_string_opt s
  | _ -> None

let within_tolerance ~tolerance b f =
  Float.abs (f -. b) <= (tolerance *. Float.abs b) +. 1e-9

let strings_of_json j =
  Option.map (List.filter_map Json.to_string_opt) (Json.to_list_opt j)

(* A {columns, rows} table as the object {row label: {column: cell}}. *)
let table_as_object j =
  let rec zip cols cells =
    match (cols, cells) with
    | c :: cols, v :: cells -> (c, Json.Str v) :: zip cols cells
    | _ -> []
  in
  match
    ( Option.bind (Json.member "columns" j) strings_of_json,
      Option.bind (Json.member "rows" j) Json.to_list_opt )
  with
  | Some (_ :: cols), Some rows ->
      Some
        (Json.Obj
           (List.filter_map
              (fun r ->
                match strings_of_json r with
                | Some (label :: cells) -> Some (label, Json.Obj (zip cols cells))
                | _ -> None)
              rows))
  | _ -> None

(* The exact cells of a mirror as (path, scalar), in document order. *)
let exact_cells j =
  let rec walk path j acc =
    match j with
    | Json.Obj kvs -> List.fold_left (fun acc (k, v) -> walk (k :: path) v acc) acc kvs
    | Json.List l ->
        snd (List.fold_left (fun (i, acc) v -> (i + 1, walk (string_of_int i :: path) v acc)) (0, acc) l)
    | scalar -> (List.rev path, scalar) :: acc
  in
  let exact (path, _) =
    path <> [ "schema" ] && not (List.exists (String.starts_with ~prefix:"wall_") path)
  in
  List.filter exact (List.rev (walk [] j []))

let compare_mirrors ~tolerance ~file base fresh =
  let shape j = match table_as_object j with Some t -> (true, t) | None -> (false, j) in
  let btable, base = shape base and ftable, fresh = shape fresh in
  if btable <> ftable then Error (file ^ ": table/non-table shape changed")
  else
    let bcells = exact_cells base and fcells = exact_cells fresh in
    let show = String.concat " / " in
    let scalar = function
      | Json.Int n -> string_of_int n
      | Json.Float f -> Printf.sprintf "%g" f
      | Json.Str s -> Printf.sprintf "%S" s
      | Json.Bool b -> string_of_bool b
      | _ -> "null"
    in
    let changed (path, b) =
      match List.assoc_opt path fcells with
      | None -> Some (Printf.sprintf "%s: %s missing from fresh results" file (show path))
      | Some f when Json.equal b f -> None
      | Some f -> (
          match (cell_number b, cell_number f) with
          | Some bn, Some fn when within_tolerance ~tolerance bn fn -> None
          | _ -> Some (Printf.sprintf "%s: %s: %s -> %s" file (show path) (scalar b) (scalar f)))
    in
    let added (path, _) =
      if List.mem_assoc path bcells then None
      else Some (Printf.sprintf "%s: %s not in the baseline" file (show path))
    in
    Ok (List.filter_map changed bcells @ List.filter_map added fcells)

let load_bench_json path =
  match
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | s -> (
      match Json.parse s with
      | Error e -> Error e
      | Ok j -> (
          match Json.member "schema" j with
          | Some (Json.Str v) when v = bench_schema -> Ok j
          | Some (Json.Str v) ->
              Error (Printf.sprintf "schema %S, expected %S" v bench_schema)
          | _ -> Error (Printf.sprintf "missing schema field (expected %S)" bench_schema)))

(* [Ok regressions], or [Error] on a harness problem. *)
let compare_file ~tolerance ~fresh_dir ~baseline_dir name =
  let load side dir =
    Result.map_error (Printf.sprintf "%s: %s: %s" name side)
      (load_bench_json (Filename.concat dir name))
  in
  Result.bind (load "baseline" baseline_dir) (fun base ->
      Result.bind (load "fresh" fresh_dir) (fun fresh ->
          compare_mirrors ~tolerance ~file:name base fresh))

let bench_cmd =
  let compare_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "compare" ] ~docv:"DIR"
          ~doc:"Baseline directory of committed BENCH_*.json files (e.g. bench/baseline).")
  in
  let fresh_dir =
    Arg.(
      value & opt dir "."
      & info [ "fresh" ] ~docv:"DIR"
          ~doc:"Directory holding freshly generated BENCH_*.json files (default: the working directory).")
  in
  let files =
    Arg.(
      value & opt_all string []
      & info [ "file" ] ~docv:"NAME"
          ~doc:"Compare only this file (repeatable); 'throughput' expands to BENCH_throughput.json.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.0
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:
            "Relative tolerance for numeric cells, including numeric strings \
             such as 1.00x (default 0: exact). Cells under a wall_ name are \
             always skipped.")
  in
  let run level compare_dir fresh_dir files tolerance =
    setup_logs level;
    match compare_dir with
    | None ->
        Printf.eprintf
          "komodo bench: nothing to do — pass --compare DIR (the benchmarks \
           themselves run via the bench executable: dune exec bench/main.exe)\n";
        2
    | Some baseline_dir ->
        let is_mirror f = String.starts_with ~prefix:"BENCH_" f in
        let names =
          match files with
          | [] ->
              Sys.readdir baseline_dir |> Array.to_list
              |> List.filter (fun f -> is_mirror f && Filename.check_suffix f ".json")
              |> List.sort compare
          | fs -> List.map (fun f -> if is_mirror f then f else "BENCH_" ^ f ^ ".json") fs
        in
        if names = [] then begin
          Printf.eprintf "komodo bench: no BENCH_*.json files in %s\n" baseline_dir;
          2
        end
        else begin
          let results =
            List.map (compare_file ~tolerance ~fresh_dir ~baseline_dir) names
          in
          List.iter2
            (fun name r -> if r = Ok [] then Printf.printf "%-36s ok\n" name)
            names results;
          let errors = List.filter_map (function Error e -> Some e | Ok _ -> None) results in
          let regressions = List.concat_map (function Ok r -> r | Error _ -> []) results in
          List.iter (Printf.printf "ERROR: %s\n") errors;
          List.iter (Printf.printf "REGRESSION: %s\n") regressions;
          if errors <> [] then begin
            Printf.printf "bench compare: %d file error(s)\n" (List.length errors);
            2
          end
          else if regressions <> [] then begin
            Printf.printf "bench compare: %d regression(s) against %s\n"
              (List.length regressions) baseline_dir;
            1
          end
          else begin
            Printf.printf "bench compare: %d file(s) match %s\n"
              (List.length names) baseline_dir;
            0
          end
        end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Compare freshly generated BENCH_*.json benchmark mirrors against a \
          committed baseline directory. Every cell is exact except the \
          top-level schema and cells with a path component named wall_*. \
          Exits 0 when clean, 1 on a regression (a changed cell, or a cell \
          on one side only), 2 on IO, schema or table/object shape problems.")
    Term.(const run $ verbosity $ compare_dir $ fresh_dir $ files $ tolerance)

let () =
  let info =
    Cmd.info "komodo" ~version:"1.0.0"
      ~doc:"A software secure-enclave monitor (Komodo, SOSP 2017) — executable model"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; trace_cmd; asm_cmd; attest_cmd; check_cmd; explore_cmd;
            fault_cmd; vault_cmd; smp_cmd; serve_cmd; profile_cmd; bench_cmd;
            inspect_cmd; notary_cmd; verify_cmd ]))
