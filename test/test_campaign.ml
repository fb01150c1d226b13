(* The domain-parallel campaign engine (lib/campaign). The load-bearing
   property is schedule independence: a campaign at -j 1 and -j 4 is
   the same mathematical object — identical merged coverage, identical
   outcome fields, identical shrunk traces — including when an armed
   bug makes trials fail at racy times. Plus pool stress: a raising
   trial fails the campaign with its index in the message (no hang, no
   orphaned domain), and cancellation under a violation storm still
   reports the lowest failing index. *)

module Cover = Komodo_spec.Cover
module Diff = Komodo_spec.Diff
module Drive = Komodo_fault.Drive
module Monitor = Komodo_core.Monitor
module Metrics = Komodo_telemetry.Metrics
module Json = Komodo_telemetry.Json
module Pool = Komodo_campaign.Pool
module Campaign = Komodo_campaign.Campaign
module Progress = Komodo_campaign.Progress
module Span = Komodo_telemetry.Span
module Hist = Komodo_telemetry.Hist

(* -- check campaigns: -j 1 vs -j 4 ------------------------------------- *)

let check_divergence_str = function
  | None -> "none"
  | Some (tseed, ops, d) ->
      Printf.sprintf "seed %d: %s / %s" tseed
        (String.concat "; " (List.map Diff.pp_op ops))
        (Diff.pp_divergence d)

let same_check_outcome name (a : Diff.outcome) (b : Diff.outcome) =
  Alcotest.(check int) (name ^ ": trials_run") a.Diff.trials_run b.Diff.trials_run;
  Alcotest.(check int) (name ^ ": ops_run") a.Diff.ops_run b.Diff.ops_run;
  Alcotest.(check string)
    (name ^ ": divergence")
    (check_divergence_str a.Diff.divergence)
    (check_divergence_str b.Diff.divergence);
  Alcotest.(check bool) (name ^ ": cover tables equal") true
    (Cover.equal a.Diff.cover b.Diff.cover);
  Alcotest.(check (list string))
    (name ^ ": cover report byte-identical")
    (Cover.report a.Diff.cover) (Cover.report b.Diff.cover)

let test_check_deterministic () =
  List.iter
    (fun (trials, seed) ->
      let run jobs = Campaign.check ~jobs ~trials ~seed () in
      same_check_outcome
        (Printf.sprintf "trials %d seed %d" trials seed)
        (run 1) (run 4))
    [ (12, 7); (12, 42); (7, 123456) ]

let test_check_metrics_deterministic () =
  let dump jobs =
    let o = Campaign.check ~metrics:true ~jobs ~trials:10 ~seed:7 () in
    match o.Diff.metrics with
    | None -> Alcotest.fail "metrics requested but absent"
    | Some reg -> Json.to_string (Metrics.dump reg)
  in
  Alcotest.(check string) "merged metrics dump byte-identical" (dump 1) (dump 4)

let test_check_mutation_same_shrunk_trace () =
  (* An armed spec mutation: both worker counts must converge on the
     same lowest failing trial and shrink it to the same trace. *)
  let run jobs =
    Campaign.check ~mutate:Komodo_spec.Aspec.No_alias_check ~jobs ~trials:60
      ~seed:42 ()
  in
  let a = run 1 and b = run 4 in
  (match a.Diff.divergence with
  | None -> Alcotest.fail "mutation survived the checker"
  | Some _ -> ());
  same_check_outcome "mutation no-alias-check" a b

(* -- fault campaigns: -j 1 vs -j 4 ------------------------------------- *)

let fault_violation_str = function
  | None -> "none"
  | Some (tseed, fops, v) ->
      (* the full reproducibility contract: the shrunk campaign
         serialises to the same JSONL trace *)
      String.concat "\n"
        (Drive.trace_lines ~seed:tseed ~npages:40 ~bug:None fops)
      ^ "\n" ^ Drive.pp_violation v

let same_fault_outcome name (a : Drive.outcome) (b : Drive.outcome) =
  Alcotest.(check int) (name ^ ": trials_run") a.Drive.trials_run b.Drive.trials_run;
  Alcotest.(check int) (name ^ ": total_fops") a.Drive.total_fops b.Drive.total_fops;
  Alcotest.(check int)
    (name ^ ": total_injections")
    a.Drive.total_injections b.Drive.total_injections;
  Alcotest.(check int) (name ^ ": blackout") a.Drive.blackout b.Drive.blackout;
  Alcotest.(check string)
    (name ^ ": violation + shrunk trace")
    (fault_violation_str a.Drive.violation)
    (fault_violation_str b.Drive.violation)

let test_fault_deterministic () =
  let run jobs =
    Campaign.fault ~jobs ~faults:Drive.all_classes ~trials:6 ~seed:42 ()
  in
  same_fault_outcome "clean storm" (run 1) (run 4)

let test_fault_bug_same_shrunk_trace bug () =
  (* The self-test bugs fire mid-campaign, so at -j 4 several trials
     race toward violations; the report must still name the lowest
     trial and carry the identical shrunk trace. *)
  let run jobs =
    Campaign.fault ~jobs ~faults:Drive.all_classes ~trials:10 ~seed:42 ~bug ()
  in
  let a = run 1 and b = run 4 in
  (match a.Drive.violation with
  | None -> Alcotest.failf "bug %s survived the campaign" (Monitor.bug_name bug)
  | Some _ -> ());
  same_fault_outcome (Monitor.bug_name bug) a b

(* -- pool stress -------------------------------------------------------- *)

let test_pool_completed () =
  match
    Pool.run ~jobs:4 ~trials:50 ~failed:(fun _ -> false) (fun i -> i * i)
  with
  | Pool.Stopped _ -> Alcotest.fail "nothing failed, yet the pool stopped"
  | Pool.Completed a ->
      Alcotest.(check int) "all trials" 50 (Array.length a);
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
        a

let test_pool_zero_trials () =
  match Pool.run ~jobs:4 ~trials:0 ~failed:(fun _ -> false) (fun i -> i) with
  | Pool.Completed [||] -> ()
  | _ -> Alcotest.fail "empty campaign should complete with no results"

let test_pool_exception_carries_seed () =
  (* A raising trial must fail the whole campaign — promptly, with the
     trial's label (which callers build from the derived seed) in the
     message, and with every domain joined rather than hung. *)
  let seed_of i = Campaign.trial_seed ~root:99 i in
  let attempt () =
    Pool.run
      ~label:(fun i -> Printf.sprintf "trial %d (seed %d)" i (seed_of i))
      ~jobs:4 ~trials:40
      ~failed:(fun _ -> false)
      (fun i -> if i = 23 then failwith "synthetic trial crash" else i)
  in
  match attempt () with
  | exception Pool.Trial_error { index; msg } ->
      Alcotest.(check int) "lowest raising index" 23 index;
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "message names the derived seed" true
        (contains msg (string_of_int (seed_of 23)));
      Alcotest.(check bool) "message carries the exception" true
        (contains msg "synthetic trial crash")
  | _ -> Alcotest.fail "raising trial did not fail the campaign"

let test_pool_lowest_raiser_wins () =
  (* Two raising indices: after all domains join, the error must name
     the lowest one regardless of which raised first on the clock. *)
  match
    Pool.run ~jobs:4 ~trials:40
      ~failed:(fun _ -> false)
      (fun i -> if i = 31 || i = 6 then failwith "boom" else i)
  with
  | exception Pool.Trial_error { index; _ } ->
      Alcotest.(check int) "lowest raising index" 6 index
  | _ -> Alcotest.fail "raising trials did not fail the campaign"

let test_pool_violation_storm () =
  (* Every trial fails: cancellation must stop the pool at index 0 with
     an empty prefix — and leave no domain running (a hang here is the
     bug this test exists to catch). *)
  List.iter
    (fun jobs ->
      match
        Pool.run ~jobs ~trials:200 ~failed:(fun _ -> true) (fun i -> i)
      with
      | Pool.Stopped { prefix = [||]; index = 0; failure = 0 } -> ()
      | Pool.Stopped { index; _ } ->
          Alcotest.failf "-j %d stopped at index %d, not 0" jobs index
      | Pool.Completed _ -> Alcotest.failf "-j %d completed a failing storm" jobs)
    [ 1; 2; 4; 8 ]

let test_pool_lowest_failure_any_jobs () =
  (* A synthetic failure pattern: the stop index and surviving prefix
     must match the sequential run at every worker count. *)
  let failing i = i mod 7 = 3 in
  List.iter
    (fun jobs ->
      match Pool.run ~jobs ~trials:64 ~failed:failing (fun i -> i) with
      | Pool.Completed _ -> Alcotest.failf "-j %d missed the failures" jobs
      | Pool.Stopped { prefix; index; failure } ->
          Alcotest.(check int) (Printf.sprintf "-j %d stop index" jobs) 3 index;
          Alcotest.(check int) (Printf.sprintf "-j %d failure" jobs) 3 failure;
          Alcotest.(check (list int))
            (Printf.sprintf "-j %d surviving prefix" jobs)
            [ 0; 1; 2 ]
            (Array.to_list prefix))
    [ 1; 2; 4; 8 ]

(* -- cover merge canonicality ------------------------------------------ *)

let test_cover_merge_order_insensitive () =
  (* Two covers with different (overlapping) content, merged in both
     orders: identical tables and byte-identical reports. This is the
     property that lets per-worker covers merge in completion order. *)
  let a = (Diff.run_trial ~ops_per_trial:25 ~seed:7 ()).Diff.t_cover in
  let b = (Diff.run_trial ~ops_per_trial:25 ~seed:42 ()).Diff.t_cover in
  let ab = Cover.create () and ba = Cover.create () in
  Cover.merge_into ab a;
  Cover.merge_into ab b;
  Cover.merge_into ba b;
  Cover.merge_into ba a;
  Alcotest.(check bool) "sources differ (the test is not vacuous)" false
    (Cover.equal a b);
  Alcotest.(check bool) "a+b = b+a" true (Cover.equal ab ba);
  Alcotest.(check (list string)) "reports byte-identical"
    (Cover.report ab) (Cover.report ba);
  List.iter
    (fun (name, f) ->
      Alcotest.(check (list (pair string int))) (name ^ " listing identical")
        (f ab) (f ba))
    [
      ("smc", Cover.smc_covered);
      ("svc", Cover.svc_covered);
      ("errors", Cover.errors_covered);
      ("transitions", Cover.transitions);
    ]

(* -- span profiling under parallelism ---------------------------------- *)

let test_check_profile_spans_deterministic () =
  let run jobs = Campaign.check ~profile:true ~jobs ~trials:24 ~seed:77 () in
  let a = run 1 and b = run 4 in
  same_check_outcome "profiled check" a b;
  Alcotest.(check bool) "spans recorded" true (a.Diff.spans <> []);
  Alcotest.(check string) "aggregated span tree byte-identical"
    (Span.render_tree (Span.aggregate a.Diff.spans))
    (Span.render_tree (Span.aggregate b.Diff.spans));
  Alcotest.(check string) "folded stacks byte-identical"
    (Span.to_folded a.Diff.spans)
    (Span.to_folded b.Diff.spans);
  let da = Span.durations a.Diff.spans and db = Span.durations b.Diff.spans in
  Alcotest.(check (list string)) "duration keys identical"
    (List.map fst da) (List.map fst db);
  List.iter2
    (fun (n, ha) (_, hb) ->
      Alcotest.(check bool) (n ^ ": duration histograms equal") true
        (Hist.equal ha hb))
    da db;
  (* Clock-free spans never carry wallclock. *)
  let rec no_wall n =
    n.Span.sp_wall_ns = 0 && List.for_all no_wall n.Span.sp_children
  in
  Alcotest.(check bool) "no wallclock without a clock" true
    (List.for_all no_wall a.Diff.spans)

let test_fault_profile_spans_deterministic () =
  let run jobs =
    Campaign.fault ~profile:true ~jobs ~faults:Drive.all_classes ~trials:12
      ~seed:42 ()
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "spans recorded" true (a.Drive.spans <> []);
  Alcotest.(check string) "aggregated span tree byte-identical"
    (Span.render_tree (Span.aggregate a.Drive.spans))
    (Span.render_tree (Span.aggregate b.Drive.spans))

(* -- progress reporting ------------------------------------------------- *)

(* A fake stepping clock: deterministic snapshots, no unix. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.25;
    !t

let progress_to_buffer ?(now = fake_clock ()) ~label ~total () =
  let path = Filename.temp_file "komodo_progress" ".jsonl" in
  let oc = open_out path in
  let p =
    Progress.create ~interval:0.0 ~live:false ~jsonl:oc ~now ~label ~total ()
  in
  let read () =
    close_out oc;
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  (p, read)

let snapshot_field line name =
  match Json.parse line with
  | Error e -> Alcotest.failf "snapshot line does not parse: %s" e
  | Ok j -> Json.member name j

let test_progress_reports_campaign () =
  let trials = 16 in
  let p, read = progress_to_buffer ~label:"check" ~total:trials () in
  let with_progress = Campaign.check ~progress:p ~jobs:2 ~trials ~seed:9 () in
  let without = Campaign.check ~jobs:1 ~trials ~seed:9 () in
  (* Observer only: the campaign outcome is untouched. *)
  same_check_outcome "progress does not perturb" with_progress without;
  let lines = read () in
  (* interval 0 emits one snapshot per trial plus the final one. *)
  Alcotest.(check int) "one snapshot per trial + final"
    (trials + 1) (List.length lines);
  Alcotest.(check int) "snapshots counter agrees" (trials + 1)
    (Progress.snapshots p);
  let last = List.nth lines (List.length lines - 1) in
  (match snapshot_field last "schema" with
  | Some (Json.Str s) -> Alcotest.(check string) "schema tag" Progress.schema s
  | _ -> Alcotest.fail "snapshot lacks a schema field");
  (match snapshot_field last "done" with
  | Some (Json.Int n) -> Alcotest.(check int) "all trials folded in" trials n
  | _ -> Alcotest.fail "snapshot lacks done");
  match snapshot_field last "ops" with
  | Some (Json.Int n) ->
      Alcotest.(check int) "ops total matches the outcome" without.Diff.ops_run n
  | _ -> Alcotest.fail "snapshot lacks ops"

let test_progress_totals_schedule_independent () =
  let trials = 12 in
  let final jobs =
    let p, read = progress_to_buffer ~label:"fault" ~total:trials () in
    let _ =
      Campaign.fault ~progress:p ~jobs ~faults:Drive.all_classes ~trials
        ~seed:13 ()
    in
    let lines = read () in
    List.nth lines (List.length lines - 1)
  in
  let a = final 1 and b = final 4 in
  (* Totals in the final snapshot are merge results of per-trial data,
     so they cannot depend on the schedule; wallclock fields use the
     fake clock and match too. *)
  Alcotest.(check string) "final snapshot byte-identical at -j 1 / -j 4" a b;
  match snapshot_field a "injections" with
  | Some (Json.Int n) ->
      Alcotest.(check bool) "storm injected something" true (n > 0)
  | _ -> Alcotest.fail "fault snapshot lacks injections"

(* -- progress rendering per kind ----------------------------------------

   One representative unit of each kind — a check trial with metrics, a
   fault, a vault and an smp trial, a serve shard, an explore level —
   through a reporter whose clock reads 0 s at creation and 2 s ever
   after, so every snapshot field is fixed. The JSONL snapshots and live
   lines are pinned byte for byte: each kind's fields and line are its
   own extension, and this guards them against drifting. *)

module Kinds = Komodo_campaign.Kinds
module Vaultdrive = Komodo_fault.Vaultdrive
module Report = Komodo_serve.Report

let progress_golden_cases =
  [
    ( "check",
      (fun p ->
        Kinds.Check.progress () p
          (Diff.run_trial ~metrics:true ~npages:24 ~ops_per_trial:12 ~seed:5 ())),
      "{\"schema\":\"komodo-progress/1\",\"label\":\"check\",\"done\":1,\"total\":4,\
        \"elapsed_s\":2.0,\"trials_per_s\":0.5,\"ops\":12,\"failures\":0,\"cover\":{\"smc_calls\":10,\
        \"svc_calls\":1,\"errors\":4,\"transitions\":7},\"cycles\":{\"smc.AllocSpare\":{\"count\":3,\
        \"p50\":166,\"p90\":166,\"p99\":166,\"max\":166},\"smc.Enter\":{\"count\":3,\
        \"p50\":783,\"p90\":6454,\"p99\":6454,\"max\":6454},\"smc.Finalise\":{\"count\":2,\
        \"p50\":2456,\"p90\":2456,\"p99\":2456,\"max\":2456},\"smc.GetPhysPages\":{\"count\":1,\
        \"p50\":66,\"p90\":66,\"p99\":66,\"max\":66},\"smc.InitAddrspace\":{\"count\":6,\
        \"p50\":5200,\"p90\":5200,\"p99\":5200,\"max\":5200},\"smc.InitL2PTable\":{\"count\":3,\
        \"p50\":5199,\"p90\":5199,\"p99\":5199,\"max\":5199},\"smc.InitThread\":{\"count\":6,\
        \"p50\":2476,\"p90\":2476,\"p99\":2476,\"max\":2476},\"smc.MapInsecure\":{\"count\":1,\
        \"p50\":77,\"p90\":77,\"p99\":77,\"max\":77},\"smc.MapSecure\":{\"count\":5,\
        \"p50\":162203,\"p90\":162203,\"p99\":162203,\"max\":162203},\"smc.Remove\":{\"count\":2,\
        \"p50\":56,\"p90\":56,\"p99\":56,\"max\":56},\"svc.Exit\":{\"count\":2,\"p50\":130,\
        \"p90\":130,\"p99\":130,\"max\":130},\"svc.MapData\":{\"count\":1,\"p50\":5703,\
        \"p90\":5703,\"p99\":5703,\"max\":5703},\"svc.Unknown(9)\":{\"count\":1,\
        \"p50\":30,\"p90\":30,\"p99\":30,\"max\":30}}}",
      "komodo check: 1/4 trials, 0.5 trials/s, cover smc 10 svc 1, 12 ops" );
    ( "fault",
      (fun p ->
        Kinds.Fault.progress () p
          (Drive.run_trial ~npages:24 ~ops_per_trial:12 ~faults:Drive.all_classes
             ~seed:5 ())),
      "{\"schema\":\"komodo-progress/1\",\"label\":\"fault\",\"done\":1,\"total\":4,\
        \"elapsed_s\":2.0,\"trials_per_s\":0.5,\"ops\":21,\"failures\":0,\"cover\":{\"smc_calls\":0,\
        \"svc_calls\":0,\"errors\":0,\"transitions\":0},\"injections\":5,\"blackout\":2476,\
        \"fault_classes\":{\"irq\":4,\"mem\":7,\"rng\":5,\"storm\":0,\"crash\":0}}",
      "komodo fault: 1/4 trials, 0.5 trials/s, cover smc 0 svc 0, 5 injections,\
        \ blackout 2476" );
    ( "vault",
      (fun p ->
        Kinds.Vault.progress () p
          (Vaultdrive.run_trial ~classes:Vaultdrive.all_classes ~seed:5 ())),
      "{\"schema\":\"komodo-progress/1\",\"label\":\"vault\",\"done\":1,\"total\":4,\
        \"elapsed_s\":2.0,\"trials_per_s\":0.5,\"ops\":75,\"failures\":0,\"cover\":{\"smc_calls\":0,\
        \"svc_calls\":0,\"errors\":0,\"transitions\":0},\"vault\":{\"probes\":45,\
        \"detected\":40,\"accepted\":5,\"detection_rate\":1.0,\"storage_classes\":{\"tamper\":20,\
        \"replay\":12,\"crash\":12}}}",
      "komodo vault: 1/4 trials, 0.5 trials/s, 45 probes (40 detected,\
        \ 5 accepted), 0 violations" );
    ( "smp",
      (fun p ->
        Kinds.Smp.progress () p (Komodo_fault.Smpdrive.run_trial ~faults:true ~seed:5 ())),
      "{\"schema\":\"komodo-progress/1\",\"label\":\"smp\",\"done\":1,\"total\":4,\
        \"elapsed_s\":2.0,\"trials_per_s\":0.5,\"ops\":32,\"failures\":0,\"cover\":{\"smc_calls\":0,\
        \"svc_calls\":0,\"errors\":0,\"transitions\":0},\"smp\":{\"contended\":4,\
        \"uncontended\":51,\"spins\":13,\"lock_cycles\":2356,\"injections\":5}}",
      "komodo smp: 1/4 trials, 0.5 trials/s, 32 calls, lock cyc 2356 (4 contended,\
        \ 13 spins), 0 violations" );
    ( "serve",
      (fun p ->
        let r = Report.create () in
        r.served <- 4;
        r.shed_full <- 1;
        r.warm <- 3;
        r.cold <- 1;
        List.iter (Hist.record r.h_enter) [ 900; 1000; 1100; 5000 ];
        List.iter (Hist.record r.h_attest) [ 40_000; 41_000; 90_000 ];
        Komodo_serve.Serve.progress_observer () p r),
      "{\"schema\":\"komodo-progress/1\",\"label\":\"serve\",\"done\":1,\"total\":4,\
        \"elapsed_s\":2.0,\"trials_per_s\":0.5,\"ops\":0,\"failures\":0,\"cover\":{\"smc_calls\":0,\
        \"svc_calls\":0,\"errors\":0,\"transitions\":0},\"serve\":{\"served\":4,\
        \"shed\":1,\"sessions_per_s\":2.0,\"pool_hit_rate\":0.75,\"enter_p50\":1007,\
        \"enter_p99\":5000,\"attest_p50\":41983,\"attest_p99\":90000}}",
      "komodo serve: 1/4 shards, 4 sessions (2/s), hit 75.0%, enter p50/p99 1007/5000,\
        \ attest p50/p99 41983/90000" );
    ( "explore",
      (fun p ->
        Campaign.explore_progress () p ~depth:3 ~states:120 ~edges:4567
          ~violation:true),
      "{\"schema\":\"komodo-progress/1\",\"label\":\"explore\",\"done\":1,\"total\":4,\
        \"elapsed_s\":2.0,\"trials_per_s\":0.5,\"ops\":0,\"failures\":1,\"cover\":{\"smc_calls\":0,\
        \"svc_calls\":0,\"errors\":0,\"transitions\":0},\"explore\":{\"depth\":3,\
        \"states\":120,\"edges\":4567}}",
      "komodo explore: depth 3/4, 120 states, 4567 edges checked, 1 violations" );
  ]

let test_progress_rendering_pinned () =
  List.iter
    (fun (label, feed, snapshot, line) ->
      let created = ref false in
      let now () = if !created then 2.0 else (created := true; 0.0) in
      let p, read = progress_to_buffer ~now ~label ~total:4 () in
      feed p;
      Alcotest.(check string) (label ^ ": live line") line (Progress.line p);
      Alcotest.(check (list string)) (label ^ ": snapshot") [ snapshot ] (read ()))
    progress_golden_cases

(* -- smp campaigns: -j 1 vs -j 4 ---------------------------------------- *)

module Smpdrive = Komodo_fault.Smpdrive
module Smp = Komodo_os.Smp

let smp_violation_str = function
  | None -> "none"
  | Some (tseed, sops, v) ->
      String.concat "\n"
        (Smpdrive.trace_lines ~seed:tseed ~npages:Smpdrive.default_npages
           ~cpus:Smpdrive.default_cpus ~bug:None sops)
      ^ "\n" ^ Smpdrive.pp_violation v

let same_smp_outcome name (a : Smpdrive.outcome) (b : Smpdrive.outcome) =
  Alcotest.(check int) (name ^ ": trials_run") a.Smpdrive.trials_run
    b.Smpdrive.trials_run;
  Alcotest.(check int) (name ^ ": total_calls") a.Smpdrive.total_calls
    b.Smpdrive.total_calls;
  Alcotest.(check int) (name ^ ": contended") a.Smpdrive.total_contended
    b.Smpdrive.total_contended;
  Alcotest.(check int) (name ^ ": spins") a.Smpdrive.total_spins
    b.Smpdrive.total_spins;
  Alcotest.(check int) (name ^ ": lock_cycles") a.Smpdrive.total_lock_cycles
    b.Smpdrive.total_lock_cycles;
  Alcotest.(check string)
    (name ^ ": violation + shrunk trace")
    (smp_violation_str a.Smpdrive.violation)
    (smp_violation_str b.Smpdrive.violation)

let test_smp_deterministic () =
  let run jobs = Campaign.smp ~jobs ~trials:25 ~seed:7 () in
  let a = run 1 and b = run 4 in
  (match a.Smpdrive.violation with
  | Some _ -> Alcotest.fail "clean smp campaign violated"
  | None -> ());
  same_smp_outcome "clean smp" a b

let test_smp_faults_clean () =
  (* Lock-boundary fault injection: the construction-call alphabet
     cannot observe insecure-memory writes, interrupts, or RNG
     glitches, so the campaign must stay violation-free. *)
  let o = Campaign.smp ~faults:true ~trials:25 ~seed:7 () in
  Alcotest.(check bool) "no violation under lock-boundary faults" true
    (o.Smpdrive.violation = None);
  Alcotest.(check bool) "faults actually fired" true
    (o.Smpdrive.total_injections > 0)

let test_smp_bug_same_shrunk_trace bug () =
  let run jobs = Campaign.smp ~jobs ~trials:60 ~seed:42 ~bug () in
  let a = run 1 and b = run 4 in
  (match a.Smpdrive.violation with
  | None ->
      Alcotest.failf "%s survived the smp campaign" (Smp.bug_name bug)
  | Some (_, shrunk, _) ->
      Alcotest.(check bool) "shrunk trace nonempty" true (shrunk <> []));
  same_smp_outcome (Smp.bug_name bug) a b

let test_smp_committed_trace_replays () =
  (* The committed regression trace: a campaign shrunk from the
     lock-inversion self-test must keep reproducing its deadlock. *)
  let read_lines path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (read_lines "traces/smp_lock_inversion.jsonl")
  in
  match Smpdrive.trace_parse lines with
  | Error e -> Alcotest.failf "committed trace unparseable: %s" e
  | Ok (h, sops) -> (
      Alcotest.(check bool) "trace carries the bug" true
        (h.Smpdrive.h_bug = Some Smp.Lock_inversion);
      match Smpdrive.replay h sops with
      | Ok _ -> Alcotest.fail "committed violation no longer reproduces"
      | Error v ->
          Alcotest.(check string) "still a deadlock" "deadlock" v.Smpdrive.kind)

(* An inconclusive linearisability verdict passes the trial but is
   counted: summed in the outcome, reported in the summary and on the
   live line, and absent from both while the count is zero. *)
let test_smp_counts_inconclusive () =
  let trial inconclusive =
    {
      Smpdrive.t_stats =
        {
          Smpdrive.calls = 8;
          contended = 0;
          uncontended = 8;
          spins = 0;
          retries = 0;
          lock_cycles = 0;
          injections = 0;
          inconclusive;
        };
      t_violation = None;
    }
  in
  let c = { Kinds.Smp.npages = 32; cpus = 4; ops = 2; bug = None; faults = false } in
  let o = Kinds.Smp.reduce ~prefix:[| trial 1; trial 0; trial 1 |] ~failure:None in
  Alcotest.(check int) "summed" 2 o.Smpdrive.total_inconclusive;
  Alcotest.(check string) "summary line"
    "2 inconclusive linearisability verdicts (search budget exhausted)"
    (List.nth (Kinds.Smp.summary c o) 2);
  let clean = Kinds.Smp.reduce ~prefix:[| trial 0 |] ~failure:None in
  Alcotest.(check int) "no line when zero" 2 (List.length (Kinds.Smp.summary c clean));
  let line feed =
    let p, read = progress_to_buffer ~label:"smp" ~total:2 () in
    let observe = Kinds.Smp.progress () in
    List.iter (fun t -> observe p (trial t)) feed;
    ignore (read ());
    Progress.line p
  in
  Alcotest.(check bool) "live clause" true
    (String.ends_with ~suffix:", 1 inconclusive" (line [ 0; 1 ]));
  Alcotest.(check bool) "no clause when zero" true
    (String.ends_with ~suffix:"0 violations" (line [ 0; 0 ]))

let suite =
  [
    Alcotest.test_case "check: -j 1 = -j 4 across seeds" `Quick
      test_check_deterministic;
    Alcotest.test_case "check: merged metrics identical at any -j" `Quick
      test_check_metrics_deterministic;
    Alcotest.test_case "check: mutation shrunk trace identical at any -j" `Quick
      test_check_mutation_same_shrunk_trace;
    Alcotest.test_case "fault: -j 1 = -j 4 on a clean storm" `Quick
      test_fault_deterministic;
    Alcotest.test_case "fault: partial MapSecure shrunk trace identical" `Quick
      (test_fault_bug_same_shrunk_trace Monitor.Bug_partial_map_secure);
    Alcotest.test_case "fault: partial Remove shrunk trace identical" `Quick
      (test_fault_bug_same_shrunk_trace Monitor.Bug_partial_remove);
    Alcotest.test_case "pool: clean campaign completes in order" `Quick
      test_pool_completed;
    Alcotest.test_case "pool: zero trials" `Quick test_pool_zero_trials;
    Alcotest.test_case "pool: raising trial fails with its seed named" `Quick
      test_pool_exception_carries_seed;
    Alcotest.test_case "pool: lowest raising index wins" `Quick
      test_pool_lowest_raiser_wins;
    Alcotest.test_case "pool: violation storm stops at index 0, no orphans"
      `Quick test_pool_violation_storm;
    Alcotest.test_case "pool: stop index schedule-independent" `Quick
      test_pool_lowest_failure_any_jobs;
    Alcotest.test_case "cover: merge is order-insensitive" `Quick
      test_cover_merge_order_insensitive;
    Alcotest.test_case "check: profiled span tree identical at any -j" `Quick
      test_check_profile_spans_deterministic;
    Alcotest.test_case "fault: profiled span tree identical at any -j" `Quick
      test_fault_profile_spans_deterministic;
    Alcotest.test_case "progress: observes without perturbing" `Quick
      test_progress_reports_campaign;
    Alcotest.test_case "progress: totals schedule-independent" `Quick
      test_progress_totals_schedule_independent;
    Alcotest.test_case "smp: -j 1 = -j 4 on a clean campaign" `Quick
      test_smp_deterministic;
    Alcotest.test_case "smp: clean under lock-boundary faults" `Quick
      test_smp_faults_clean;
    Alcotest.test_case "smp: missing_page_lock shrunk trace identical" `Quick
      (test_smp_bug_same_shrunk_trace Smp.Missing_page_lock);
    Alcotest.test_case "smp: lock_inversion shrunk trace identical" `Quick
      (test_smp_bug_same_shrunk_trace Smp.Lock_inversion);
    Alcotest.test_case "smp: committed deadlock trace replays" `Quick
      test_smp_committed_trace_replays;
    Alcotest.test_case "progress: per-kind snapshot and live line pinned" `Quick
      test_progress_rendering_pinned;
    Alcotest.test_case "smp: inconclusive verdicts counted" `Quick
      test_smp_counts_inconclusive;
  ]
