(* The four seed-per-trial campaign kinds as {!Driver.DRIVER} instances:
   the differential refinement check ({!Komodo_spec.Diff}), fault
   injection ({!Komodo_fault.Drive}), sealed-storage faults
   ({!Komodo_fault.Vaultdrive}) and the multi-core lock discipline
   ({!Komodo_fault.Smpdrive}). Each module holds only the kind's own
   parts — among them its one merge of trials, through which both the
   report and live progress fold — and {!Driver.Make} runs any of them. *)

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

  let check_config c = Result.map ignore (Diff.check_pages c.npages)

  let zero () =
    let t_cover = Cover.create () in
    { Diff.t_ops_run = 0; t_cover; t_metrics = None; t_spans = []; t_divergence = None }

  (* Registries merge into one the fold owns, never into a trial's. *)
  let merge (acc : trial) (t : trial) =
    Cover.merge_into acc.t_cover t.t_cover;
    let t_metrics =
      Option.fold t.t_metrics ~none:acc.t_metrics ~some:(fun tm ->
          let m = match acc.t_metrics with Some m -> m | None -> Metrics.create () in
          Metrics.merge_into m tm;
          Some m)
    in
    let t_ops_run = acc.t_ops_run + t.t_ops_run in
    { acc with t_ops_run; t_metrics; t_spans = acc.t_spans @ t.t_spans }

  let outcome (m : trial) ~trials_run ~found =
    let ops_run = m.t_ops_run and cover = m.t_cover and spans = m.t_spans in
    { Diff.trials_run; ops_run; divergence = found; cover; metrics = m.t_metrics; spans }

  let ops (m : trial) = m.t_ops_run

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

  (* Coverage growth; per-call cycle histograms once a trial brings a
     registry. *)
  let render =
    let count f (m : trial) = List.length (f m.t_cover) in
    let covered f = count (fun c -> List.filter (fun (_, n) -> n > 0) (f c)) in
    let smc = covered Cover.smc_covered and svc = covered Cover.svc_covered in
    {
      Progress.fields =
        (fun _ m ->
          let cover =
            [
              ("smc_calls", smc m);
              ("svc_calls", svc m);
              ("errors", count Cover.errors_covered m);
              ("transitions", count Cover.transitions m);
            ]
          in
          ("cover", Progress.counts_json cover)
          :: Option.to_list (Option.map (fun r -> ("cycles", cycles_json r)) m.t_metrics));
      line =
        (fun v m ->
          sprintf "%s, cover smc %d svc %d, %d ops" (Progress.trials_line v) (smc m) (svc m) v.ops);
    }
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

  let check_config c = Result.map ignore (Diff.check_pages c.npages)

  let zero () =
    let t_classes = [] and t_spans = [] and t_violation = None in
    { Drive.t_fops_run = 0; t_injections = 0; t_blackout = 0; t_classes; t_spans; t_violation }

  let merge (acc : trial) (t : trial) =
    {
      acc with
      t_fops_run = acc.t_fops_run + t.t_fops_run;
      t_injections = acc.t_injections + t.t_injections;
      t_blackout = max acc.t_blackout t.t_blackout;
      t_classes = Progress.add_counts acc.t_classes t.t_classes;
      t_spans = acc.t_spans @ t.t_spans;
    }

  let outcome (m : trial) ~trials_run ~found =
    let total_fops = m.t_fops_run and total_injections = m.t_injections in
    let blackout = m.t_blackout and spans = m.t_spans in
    { Drive.trials_run; total_fops; total_injections; blackout; violation = found; spans }

  let ops (m : trial) = m.t_fops_run

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

  (* Injections, worst blackout and per-class plan items, once a trial
     has armed anything. *)
  let render =
    let fired (m : trial) = m.t_injections > 0 || m.t_classes <> [] in
    {
      Progress.fields =
        (fun _ (m : trial) ->
          if (not (fired m)) && m.t_blackout = 0 then []
          else
            [
              ("injections", Json.Int m.t_injections);
              ("blackout", Json.Int m.t_blackout);
              ("fault_classes", Progress.counts_json m.t_classes);
            ]);
      line =
        (fun v (m : trial) ->
          if not (fired m) then sprintf "%s, %d ops" (Progress.trials_line v) v.ops
          else
            sprintf "%s, %d injections, blackout %d" (Progress.trials_line v)
              m.t_injections m.t_blackout);
    }
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

  let check_config c = Result.map ignore (Vaultdrive.check_pages c.npages)

  let zero () =
    let t_stats = { Vaultdrive.sops_run = 0; probes = 0; detected = 0; accepted = 0 } in
    { Vaultdrive.t_stats; t_classes = []; t_violation = None }

  let merge (acc : trial) (t : trial) =
    let a = acc.t_stats and s = t.t_stats in
    let t_stats =
      {
        Vaultdrive.sops_run = a.sops_run + s.sops_run;
        probes = a.probes + s.probes;
        detected = a.detected + s.detected;
        accepted = a.accepted + s.accepted;
      }
    in
    { acc with t_stats; t_classes = Progress.add_counts acc.t_classes t.t_classes }

  let outcome (m : trial) ~trials_run ~found =
    { Vaultdrive.trials_run; stats = m.t_stats; violation = found }

  let ops (m : trial) = m.t_stats.sops_run

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
    let s = o.stats in
    [
      sprintf "%d trials, %d storage-fault-decorated vault ops" o.trials_run s.sops_run;
      sprintf "%d unseal probes: %d detected (tampered/stale), %d accepted" s.probes
        s.detected s.accepted;
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

  let render =
    {
      Progress.fields =
        (fun _ (m : trial) ->
          let s = m.t_stats in
          let refusals = s.probes - s.accepted in
          let rate =
            if refusals = 0 then 1.0 else float_of_int s.detected /. float_of_int refusals
          in
          [
            ( "vault",
              Json.Obj
                [
                  ("probes", Json.Int s.probes);
                  ("detected", Json.Int s.detected);
                  ("accepted", Json.Int s.accepted);
                  ("detection_rate", Json.Float rate);
                  ("storage_classes", Progress.counts_json m.t_classes);
                ] );
          ]);
      line =
        (fun v (m : trial) ->
          sprintf "%s, %d probes (%d detected, %d accepted), %d violations"
            (Progress.trials_line v) m.t_stats.probes m.t_stats.detected
            m.t_stats.accepted v.failures);
    }
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

  let check_config c = Smpdrive.check_geometry ~npages:c.npages ~cpus:c.cpus

  let zero () = { Smpdrive.t_stats = Smpdrive.no_stats; t_violation = None }

  let merge (acc : trial) (t : trial) =
    let a = acc.t_stats and s = t.t_stats in
    let t_stats =
      {
        Smpdrive.calls = a.calls + s.calls;
        contended = a.contended + s.contended;
        uncontended = a.uncontended + s.uncontended;
        spins = a.spins + s.spins;
        retries = a.retries + s.retries;
        lock_cycles = a.lock_cycles + s.lock_cycles;
        injections = a.injections + s.injections;
        inconclusive = a.inconclusive + s.inconclusive;
      }
    in
    { acc with t_stats }

  let outcome (m : trial) ~trials_run ~found =
    { Smpdrive.trials_run; stats = m.t_stats; violation = found }

  let ops (m : trial) = m.t_stats.calls

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
    let s = o.stats in
    [
      sprintf "%d trials, %d racing calls on %d cpus" o.trials_run s.calls c.cpus;
      sprintf
        "lock cycles %d: %d contended + %d uncontended acquisitions, %d spins, %d \
         footprint retries, %d lock-boundary faults"
        s.lock_cycles s.contended s.uncontended s.spins s.retries s.injections;
    ]
    (* Only when there are any, so clean reports keep their shape. *)
    @ (if s.inconclusive = 0 then []
       else
         [
           sprintf "%d inconclusive linearisability verdicts (search budget exhausted)"
             s.inconclusive;
         ])

  let messages =
    {
      Driver.finding = "VIOLATION";
      steps = "calls";
      clean = "no violation: every interleaving linearisable, no deadlock, invariants held";
      survived = "BUG SURVIVED: the smp campaign failed its self-test";
      caught = "bug caught: smp-campaign self-test passed";
    }

  let render =
    {
      Progress.fields =
        (fun _ (m : trial) ->
          let s = m.t_stats in
          [
            ( "smp",
              Progress.counts_json
                [
                  ("contended", s.contended);
                  ("uncontended", s.uncontended);
                  ("spins", s.spins);
                  ("lock_cycles", s.lock_cycles);
                  ("injections", s.injections);
                ] );
          ]);
      line =
        (fun v (m : trial) ->
          let s = m.t_stats in
          sprintf "%s, %d calls, lock cyc %d (%d contended, %d spins), %d violations%s"
            (Progress.trials_line v) v.ops s.lock_cycles s.contended s.spins v.failures
            (if s.inconclusive = 0 then "" else sprintf ", %d inconclusive" s.inconclusive));
    }
end
