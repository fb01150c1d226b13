(* The four seed-per-trial campaign kinds as {!Driver.DRIVER} instances:
   the differential refinement check ({!Komodo_spec.Diff}), fault
   injection ({!Komodo_fault.Drive}), sealed-storage faults
   ({!Komodo_fault.Vaultdrive}) and the multi-core lock discipline
   ({!Komodo_fault.Smpdrive}). Each module holds only the kind's own
   parts; {!Driver.Make} runs any of them. *)

module Cover = Komodo_spec.Cover
module Diff = Komodo_spec.Diff
module Explore = Komodo_spec.Explore
module Metrics = Komodo_telemetry.Metrics
module Json = Komodo_telemetry.Json
module Drive = Komodo_fault.Drive
module Vaultdrive = Komodo_fault.Vaultdrive
module Smpdrive = Komodo_fault.Smpdrive

let sprintf = Printf.sprintf

(* Re-run a regenerated trace; shrink it if it still fails. *)
let shrink_ops ~run ~index ops =
  match run ops with Ok _ -> None | Error _ -> Some (Diff.shrink_seq ~run ~index ops)

(* Re-run a parsed fault/vault/smp trace: one report line when clean. *)
let replay_ops replay ~pp_violation ~clean (h, ops) =
  match replay h ops with
  | Ok st -> Ok [ clean h st ]
  | Error v -> Error [ "replayed campaign VIOLATION:"; pp_violation v ]

module Check = struct
  let name = "check"

  type config = {
    mutate : Komodo_spec.Aspec.mutation option;
    npages : int;
    ops : int;  (** generated ops per trial *)
    metrics : bool;  (** collect and merge per-trial telemetry registries *)
    profile : bool;  (** record per-trial span trees *)
    clock : Komodo_telemetry.Span.clock option;
  }

  type op = Diff.op
  type violation = Diff.divergence
  type trial = Diff.trial
  type outcome = Diff.outcome

  let run_trial c ~seed =
    Diff.run_trial ?mutate:c.mutate ~npages:c.npages ~ops_per_trial:c.ops
      ~metrics:c.metrics ~profile:c.profile ?clock:c.clock ~seed ()

  let violation (t : trial) = t.t_divergence

  let shrink c ~seed =
    let w = Diff.make_world ?mutate:c.mutate ~npages:c.npages ~seed () in
    shrink_ops ~run:(Diff.run_ops w)
      ~index:(fun (d : violation) -> d.index)
      (Diff.gen_ops w ~seed ~n:c.ops)

  let reduce ~prefix ~failure =
    let all = Driver.trials ~prefix ~failure in
    let cover = Cover.create () in
    List.iter (fun (t : trial) -> Cover.merge_into cover t.t_cover) all;
    let metrics =
      match List.filter_map (fun (t : trial) -> t.t_metrics) all with
      | [] -> None
      | ms ->
          let m = Metrics.create () in
          List.iter (Metrics.merge_into m) ms;
          Some m
    in
    {
      Diff.trials_run = Driver.trials_run ~prefix ~failure;
      ops_run = Driver.sum (fun (t : trial) -> t.t_ops_run) all;
      divergence = Driver.found_of failure;
      cover;
      metrics;
      spans = List.concat_map (fun (t : trial) -> t.t_spans) all;
    }

  let found (o : outcome) = o.divergence

  (* Two trace kinds replay here: an explore counterexample (its
     komodo-check-trace/1 header is the tag) and a telemetry trace from
     `komodo trace`. *)
  type trace =
    | Explored of Explore.header * Explore.xop list
    | Telemetry of Komodo_telemetry.Event.stamped list

  let trace_lines = None

  let trace_parse lines =
    match List.find_opt (fun l -> String.trim l <> "") lines with
    | Some l when Explore.is_trace l ->
        Result.map (fun (h, ops) -> Explored (h, ops)) (Explore.trace_parse lines)
    | _ ->
        Komodo_telemetry.Event.parse_trace (String.concat "\n" lines)
        |> Result.map (fun evs -> Telemetry evs)

  let replay c = function
    | Explored (h, ops) -> (
        match Explore.replay h ops with
        | Explore.Clean n ->
            Ok
              [
                sprintf "replayed %d explore ops in differential lockstep: no divergence" n;
                "trace refines the spec";
              ]
        | Explore.Diverged d ->
            Error [ "replayed explore counterexample DIVERGENCE:"; Diff.pp_divergence d ])
    | Telemetry evs ->
        let r = Komodo_spec.Trace_check.replay ~npages:c.npages evs in
        let lines = Komodo_spec.Trace_check.render r in
        if r.violations = [] then Ok lines else Error lines

  let pp_op = Diff.pp_op
  let pp_violation = Diff.pp_divergence
  let armed c = c.mutate <> None

  let summary _ (o : outcome) =
    (sprintf "%d trials, %d lockstep ops checked" o.trials_run o.ops_run
    :: Cover.report o.cover)
    @ Option.to_list (Option.map (fun m -> Json.to_string (Metrics.dump m)) o.metrics)

  let clean = "no divergence: implementation refines the spec"

  let messages =
    {
      Driver.finding = "DIVERGENCE";
      steps = "calls";
      clean;
      survived = clean ^ "\nMUTATION SURVIVED: the checker failed its self-test";
      caught = "mutation caught: checker self-test passed";
    }

  let cycles_json m =
    let stats name (s : Metrics.stats) =
      ( name,
        Progress.counts_json
          [ ("count", s.count); ("p50", s.p50); ("p90", s.p90); ("p99", s.p99); ("max", s.max) ]
      )
    in
    Json.Obj
      (List.filter_map
         (fun name -> Option.map (stats name) (Metrics.stats m name))
         (Metrics.call_names m))

  (* Per-call cycle histograms appear once a trial brings a registry. *)
  let progress () =
    let metrics = Metrics.create () and seen = ref false in
    let fields _ = if !seen then [ ("cycles", cycles_json metrics) ] else [] in
    let ext = { Progress.plain with fields } in
    fun p (t : trial) ->
      Progress.record p ext ~cover:t.t_cover ~ops:t.t_ops_run
        ~failed:(t.t_divergence <> None) (fun () ->
          Option.iter
            (fun m ->
              seen := true;
              Metrics.merge_into metrics m)
            t.t_metrics)
end

module Fault = struct
  let name = "fault"

  type config = {
    npages : int;
    ops : int;  (** adversarial ops per trial, before fault decoration *)
    faults : Drive.fault_class list;
    bug : Komodo_core.Monitor.bug option;
    profile : bool;
    clock : Komodo_telemetry.Span.clock option;
  }

  type op = Drive.fop
  type violation = Drive.violation
  type trial = Drive.trial
  type outcome = Drive.outcome

  let run_trial c ~seed =
    Drive.run_trial ~npages:c.npages ~ops_per_trial:c.ops ~profile:c.profile
      ?clock:c.clock ?bug:c.bug ~faults:c.faults ~seed ()

  let violation (t : trial) = t.t_violation

  let shrink c ~seed =
    let w = Diff.make_world ~npages:c.npages ~seed () in
    shrink_ops
      ~run:(Drive.run_fops ?bug:c.bug w)
      ~index:(fun (v : violation) -> v.index)
      (Drive.gen_fops w ~faults:c.faults ~seed ~n:c.ops)

  let reduce ~prefix ~failure =
    let all = Driver.trials ~prefix ~failure in
    {
      Drive.trials_run = Driver.trials_run ~prefix ~failure;
      total_fops = Driver.sum (fun (t : trial) -> t.t_fops_run) all;
      total_injections = Driver.sum (fun (t : trial) -> t.t_injections) all;
      blackout = List.fold_left (fun a (t : trial) -> max a t.t_blackout) 0 all;
      violation = Driver.found_of failure;
      spans = List.concat_map (fun (t : trial) -> t.t_spans) all;
    }

  let found (o : outcome) = o.violation

  type trace = Drive.header * Drive.fop list

  let trace_lines =
    Some (fun c ~seed ops -> Drive.trace_lines ~seed ~npages:c.npages ~bug:c.bug ops)

  let trace_parse = Drive.trace_parse

  let replay _ =
    replay_ops Drive.replay ~pp_violation:Drive.pp_violation ~clean:(fun _ st ->
        sprintf "replayed %d fops (%d faults fired): no violation" st.Drive.fops_run
          st.injections)

  let pp_op = Drive.pp_fop
  let pp_violation = Drive.pp_violation
  let armed c = c.bug <> None

  let summary _ (o : outcome) =
    [
      sprintf "%d trials, %d fault-decorated ops, %d faults fired" o.trials_run
        o.total_fops o.total_injections;
      sprintf "worst interrupt blackout: %d cycles (%.3f ms at 900 MHz)" o.blackout
        (Komodo_machine.Cost.cycles_to_ms o.blackout);
    ]

  let messages =
    {
      Driver.finding = "VIOLATION";
      steps = "fops";
      clean = "no violation: every call stayed atomic under injected faults";
      survived = "BUG SURVIVED: the fault campaign failed its self-test";
      caught = "bug caught: fault-campaign self-test passed";
    }

  let progress () =
    let injections = ref 0 and blackout = ref 0 and classes = ref [] in
    let fired () = !injections > 0 || !classes <> [] in
    let fields _ =
      if (not (fired ())) && !blackout = 0 then []
      else
        [
          ("injections", Json.Int !injections);
          ("blackout", Json.Int !blackout);
          ("fault_classes", Progress.counts_json !classes);
        ]
    in
    let line v =
      if not (fired ()) then Progress.plain.line v
      else
        sprintf "%s, %s, %d injections, blackout %d" (Progress.trials_line v)
          (Progress.cover_line v) !injections !blackout
    in
    fun p (t : trial) ->
      Progress.record p { fields; line } ~ops:t.t_fops_run
        ~failed:(t.t_violation <> None) (fun () ->
          injections := !injections + t.t_injections;
          blackout := max !blackout t.t_blackout;
          classes := Progress.add_counts !classes t.t_classes)
end

module Vault = struct
  let name = "vault"

  type config = {
    npages : int;
    ops : int;  (** vault operations per trial, before fault decoration *)
    classes : Vaultdrive.storage_class list;
    bug : Komodo_user.Vault.bug option;
  }

  type op = Vaultdrive.sop
  type violation = Vaultdrive.violation
  type trial = Vaultdrive.trial
  type outcome = Vaultdrive.outcome

  let run_trial c ~seed =
    Vaultdrive.run_trial ~npages:c.npages ~ops_per_trial:c.ops ?bug:c.bug
      ~classes:c.classes ~seed ()

  let violation (t : trial) = t.t_violation

  let shrink c ~seed =
    shrink_ops
      ~run:(Vaultdrive.run_sops ?bug:c.bug ~npages:c.npages ~seed)
      ~index:(fun (v : violation) -> v.index)
      (Vaultdrive.gen_sops ~classes:c.classes ~seed ~n:c.ops)

  let reduce ~prefix ~failure =
    let all = Driver.trials ~prefix ~failure in
    let sum f = Driver.sum f all in
    {
      Vaultdrive.trials_run = Driver.trials_run ~prefix ~failure;
      total_sops = sum (fun (t : trial) -> t.t_stats.sops_run);
      total_probes = sum (fun (t : trial) -> t.t_stats.probes);
      total_detected = sum (fun (t : trial) -> t.t_stats.detected);
      total_accepted = sum (fun (t : trial) -> t.t_stats.accepted);
      violation = Driver.found_of failure;
    }

  let found (o : outcome) = o.violation

  type trace = Vaultdrive.header * Vaultdrive.sop list

  let trace_lines =
    Some (fun c ~seed ops -> Vaultdrive.trace_lines ~seed ~npages:c.npages ~bug:c.bug ops)

  let trace_parse = Vaultdrive.trace_parse

  let replay _ =
    replay_ops Vaultdrive.replay ~pp_violation:Vaultdrive.pp_violation
      ~clean:(fun _ st ->
        sprintf "replayed %d sops (%d probes, %d detected, %d accepted): no violation"
          st.Vaultdrive.sops_run st.probes st.detected st.accepted)

  let pp_op = Vaultdrive.pp_sop
  let pp_violation = Vaultdrive.pp_violation
  let armed c = c.bug <> None

  let summary _ (o : outcome) =
    [
      sprintf "%d trials, %d storage-fault-decorated vault ops" o.trials_run o.total_sops;
      sprintf "%d unseal probes: %d detected (tampered/stale), %d accepted"
        o.total_probes o.total_detected o.total_accepted;
    ]

  let messages =
    {
      Driver.finding = "VIOLATION";
      steps = "sops";
      clean =
        "no violation: every corruption detected, every rollback refused, no false \
         unseals";
      survived = "BUG SURVIVED: the vault campaign failed its self-test";
      caught = "bug caught: vault-campaign self-test passed";
    }

  let progress () =
    let probes = ref 0 and detected = ref 0 and accepted = ref 0 and classes = ref [] in
    let fields _ =
      let refusals = !probes - !accepted in
      let rate =
        if refusals = 0 then 1.0 else float_of_int !detected /. float_of_int refusals
      in
      [
        ( "vault",
          Json.Obj
            [
              ("probes", Json.Int !probes);
              ("detected", Json.Int !detected);
              ("accepted", Json.Int !accepted);
              ("detection_rate", Json.Float rate);
              ("storage_classes", Progress.counts_json !classes);
            ] );
      ]
    in
    let line (v : Progress.view) =
      sprintf "%s, %d probes (%d detected, %d accepted), %d violations"
        (Progress.trials_line v) !probes !detected !accepted v.failures
    in
    fun p (t : trial) ->
      Progress.record p { fields; line } ~ops:t.t_stats.sops_run
        ~failed:(t.t_violation <> None) (fun () ->
          probes := !probes + t.t_stats.probes;
          detected := !detected + t.t_stats.detected;
          accepted := !accepted + t.t_stats.accepted;
          classes := Progress.add_counts !classes t.t_classes)
end

module Smp = struct
  let name = "smp"

  type config = {
    npages : int;
    cpus : int;
    ops : int;  (** monitor calls per CPU per trial *)
    bug : Komodo_os.Smp.bug option;
    faults : bool;  (** also inject at lock acquire/release boundaries *)
  }

  type op = Smpdrive.sop
  type violation = Smpdrive.violation
  type trial = Smpdrive.trial
  type outcome = Smpdrive.outcome

  let run_trial c ~seed =
    Smpdrive.run_trial ~npages:c.npages ~cpus:c.cpus ~ops_per_cpu:c.ops ?bug:c.bug
      ~faults:c.faults ~seed ()

  let violation (t : trial) = t.t_violation

  let shrink c ~seed =
    shrink_ops
      ~run:
        (Smpdrive.run_sops ?bug:c.bug ~faults:c.faults ~seed ~npages:c.npages
           ~cpus:c.cpus)
      ~index:(fun (v : violation) -> v.index)
      (Smpdrive.gen_sops ~seed ~npages:c.npages ~cpus:c.cpus ~ops_per_cpu:c.ops)

  let reduce ~prefix ~failure =
    let all = Driver.trials ~prefix ~failure in
    let sum f = Driver.sum f all in
    {
      Smpdrive.trials_run = Driver.trials_run ~prefix ~failure;
      total_calls = sum (fun (t : trial) -> t.t_stats.calls);
      total_contended = sum (fun (t : trial) -> t.t_stats.contended);
      total_uncontended = sum (fun (t : trial) -> t.t_stats.uncontended);
      total_spins = sum (fun (t : trial) -> t.t_stats.spins);
      total_retries = sum (fun (t : trial) -> t.t_stats.retries);
      total_lock_cycles = sum (fun (t : trial) -> t.t_stats.lock_cycles);
      total_injections = sum (fun (t : trial) -> t.t_stats.injections);
      violation = Driver.found_of failure;
    }

  let found (o : outcome) = o.violation

  type trace = Smpdrive.header * Smpdrive.sop list

  let trace_lines =
    Some
      (fun c ~seed ops ->
        Smpdrive.trace_lines ~seed ~npages:c.npages ~cpus:c.cpus ~bug:c.bug ops)

  let trace_parse = Smpdrive.trace_parse

  let replay _ =
    replay_ops Smpdrive.replay ~pp_violation:Smpdrive.pp_violation
      ~clean:(fun h st ->
        sprintf "replayed %d calls on %d cpus (%d contended, %d spins): no violation"
          st.Smpdrive.calls h.Smpdrive.h_cpus st.contended st.spins)

  let pp_op = Smpdrive.pp_sop
  let pp_violation = Smpdrive.pp_violation
  let armed c = c.bug <> None

  let summary c (o : outcome) =
    [
      sprintf "%d trials, %d racing calls on %d cpus" o.trials_run o.total_calls c.cpus;
      sprintf
        "lock cycles %d: %d contended + %d uncontended acquisitions, %d spins, %d \
         footprint retries, %d lock-boundary faults"
        o.total_lock_cycles o.total_contended o.total_uncontended o.total_spins
        o.total_retries o.total_injections;
    ]

  let messages =
    {
      Driver.finding = "VIOLATION";
      steps = "calls";
      clean = "no violation: every interleaving linearisable, no deadlock, invariants held";
      survived = "BUG SURVIVED: the smp campaign failed its self-test";
      caught = "bug caught: smp-campaign self-test passed";
    }

  let progress () =
    let totals = ref [] in
    let get k = List.assoc k !totals in
    let fields _ = [ ("smp", Progress.counts_json !totals) ] in
    let line (v : Progress.view) =
      sprintf "%s, %d calls, lock cyc %d (%d contended, %d spins), %d violations"
        (Progress.trials_line v) v.ops (get "lock_cycles") (get "contended") (get "spins")
        v.failures
    in
    fun p (t : trial) ->
      let s = t.t_stats in
      Progress.record p { fields; line } ~ops:s.calls ~failed:(t.t_violation <> None)
        (fun () ->
          totals :=
            Progress.add_counts !totals
              [
                ("contended", s.contended);
                ("uncontended", s.uncontended);
                ("spins", s.spins);
                ("lock_cycles", s.lock_cycles);
                ("injections", s.injections);
              ])
end
