(* The traced run: per-layer numbers for one batch of a workload.

   Every span is recorded here, around calls into the program's public
   functions; nothing inside the libraries is instrumented beyond the
   span recorder they already carry. Where a layer runs inside another
   call (the monitor, the abstraction function, the spec step and the
   state diff all run inside [Diff.apply_op]), it is timed by a shadow
   call: the same function applied to the same persistent pre-state, its
   result dropped. The world state is functional (copy-on-write memory,
   persistent PageDB, a separate abstraction cache), so a shadow call
   cannot change what the real call computes; each traced driver
   re-derives the workload's report, and the caller checks that it
   equals the untraced one.

   A metric a workload's drivers do not measure reads 0; README.md lists
   which workloads measure which metric. *)

open Work
module Cpool = Komodo_campaign.Pool
module Agg = Komodo_campaign.Agg
module Abs = Komodo_spec.Abs
module Aspec = Komodo_spec.Aspec
module Astate = Komodo_spec.Astate
module Monitor = Komodo_core.Monitor
module Errors = Komodo_core.Errors
module Attest = Komodo_core.Attest
module Word = Komodo_machine.Word
module State = Komodo_machine.State
module Span = Komodo_telemetry.Span
module Session = Komodo_serve.Session
module Workload = Komodo_serve.Workload

let now = Host.now
let words = Host.words

(* The per-layer metric names, in report order. *)
let metric_names =
  [
    "trace.unattributed_share";
    "trace.throughput_ratio";
    "os.boot_s";
    "spec.make_world_s";
    "spec.gen_ops_s";
    "spec.apply_op_s";
    "spec.apply_op_calls";
    "core.smc_s";
    "core.smc_alloc_words";
    "spec.abs_s";
    "spec.abs_alloc_words";
    "spec.step_s";
    "spec.diff_s";
    "spec.glue_s";
    "core.validate_s";
    "core.commit_s";
    "machine.exec_s";
    "crypto.hash_s";
    "fault.gen_fops_s";
    "fault.run_fops_s";
    "fault.injections";
    "campaign.trial_p50_ms";
    "campaign.trial_p99_ms";
    "campaign.busy_s";
    "campaign.parallel_efficiency";
    "campaign.minor_gcs";
    "campaign.major_gcs";
    "serve.pool_create_s";
    "serve.pool_serve_s";
    "serve.pool_serve_calls";
    "serve.hit_rate";
    "serve.rebuilds";
    "serve.minor_words_per_session";
    "serve.major_words_per_session";
    "serve.sojourn_p50_cycles";
    "serve.sojourn_p99_cycles";
    "serve.attest_p99_cycles";
    "crypto.attest_verify_s";
    "spec.expand_s";
    "spec.alphabet_s";
    "spec.node_key_s";
    "spec.new_state_ratio";
  ]

let unit_of name =
  let ends suffix = String.ends_with ~suffix name in
  if ends "_ms" then "ms"
  else if ends "_s" then "s"
  else if ends "_words" || ends "_per_session" then "words"
  else if ends "_cycles" then "cycles"
  else if ends "_share" || ends "_ratio" || ends "_rate" || ends "_efficiency"
  then "ratio"
  else "count"

(* A traced run's result: the report its drivers re-derived (to compare
   with the untraced one), and the per-layer metrics. *)
type t = { report : string; metrics : (string * float) list }

(* Metric accumulator keyed by name; unset metrics read 0. *)
let table () = Hashtbl.create 64
let add tbl name v =
  Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
let get tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

let timed tbl name f =
  let t0 = now () in
  let r = f () in
  add tbl name (now () -. t0);
  r

let finish tbl report =
  { report; metrics = List.map (fun n -> (n, get tbl n)) metric_names }

(* Nearest-rank quantile of a non-empty sample. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

(* -- the campaign layer: a benchmark-side pool over the trial function -- *)

(* Run [trials] trials of [trial] on [jobs] domains, timing each one, and
   record the campaign-layer metrics. Returns the results in index
   order. *)
let campaign tbl ~jobs ~trials ~failed trial =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let run i =
    let s = now () in
    let r = trial i in
    (r, now () -. s)
  in
  let results =
    match Cpool.run ~jobs ~trials ~failed:(fun (r, _) -> failed r) run with
    | Cpool.Completed a -> a
    | Cpool.Stopped { prefix; failure; _ } -> Array.append prefix [| failure |]
  in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let busy = Array.to_list (Array.map snd results) in
  let busy_s = List.fold_left ( +. ) 0. busy in
  add tbl "campaign.trial_p50_ms" (1e3 *. quantile busy 0.5);
  add tbl "campaign.trial_p99_ms" (1e3 *. quantile busy 0.99);
  add tbl "campaign.busy_s" busy_s;
  add tbl "campaign.parallel_efficiency" (busy_s /. (float jobs *. wall));
  add tbl "campaign.minor_gcs"
    (float (g1.Gc.minor_collections - g0.Gc.minor_collections));
  add tbl "campaign.major_gcs"
    (float (g1.Gc.major_collections - g0.Gc.major_collections));
  Array.map fst results

(* -- the monitor's own span recorder ------------------------------------ *)

(* Fold the profiler's span trees (wallclock-stamped) into self times of
   the monitor's phases, and totals of the checker-level spans. *)
let profile_spans tbl ~op_spans nodes =
  let s ns = float ns /. 1e9 in
  let rec visit (n : Span.node) =
    let child = List.fold_left (fun a c -> a + c.Span.sp_wall_ns) 0 n.Span.sp_children in
    let self = s (max 0 (n.Span.sp_wall_ns - child)) in
    (match n.Span.sp_name with
    | "validate" -> add tbl "core.validate_s" self
    | "commit" -> add tbl "core.commit_s" self
    | "exec" -> add tbl "machine.exec_s" self
    | "hash" -> add tbl "crypto.hash_s" self
    | "abs" when op_spans -> add tbl "spec.abs_s" (s n.Span.sp_wall_ns)
    | name when op_spans && String.starts_with ~prefix:"op." name ->
        add tbl "spec.apply_op_s" (s n.Span.sp_wall_ns);
        add tbl "spec.apply_op_calls" 1.
    | name when op_spans && String.starts_with ~prefix:"smc." name ->
        add tbl "core.smc_s" (s n.Span.sp_wall_ns)
    | _ -> ());
    List.iter visit n.Span.sp_children
  in
  List.iter visit nodes

(* -- refine: shadowed lockstep steps ------------------------------------ *)

let set_budget budget (os : Os.t) =
  let mon = os.Os.mon in
  { os with Os.mon = { mon with Monitor.mach = { mon.Monitor.mach with State.irq_budget = budget } } }

(* The MapSecure contents oracle, as the checker reads it: the staged
   insecure page, when the spec's preconditions on its address hold. *)
let contents (rs : Diff.rstate) ~call ~args =
  if call <> Aspec.smc_map_secure then None
  else
    match args with
    | _ :: _ :: _ :: c :: _ ->
        let c = c land 0xffffffff in
        if c <> 0 && c land 0xfff = 0 && Astate.valid_insecure rs.Diff.spec.Astate.plat c
        then Some (Os.read_bytes rs.Diff.os (Word.of_int c) 4096)
        else None
    | _ -> None

(* Time the four parts of one lockstep SMC step on its pre-state:
   the monitor call, the abstraction of its result, the spec step, and
   the diff of the two abstract states. *)
let shadow tbl w cache (rs : Diff.rstate) ~call ~args ~budget =
  let os = set_budget budget rs.Diff.os in
  let rng_exhausted = Komodo_tz.Rng.exhausted os.Os.mon.Monitor.rng in
  let w0 = words () and t0 = now () in
  match Os.smc os ~call ~args:(List.map Word.of_int args) with
  | exception _ -> add tbl "core.smc_s" (now () -. t0)
  | os', err, _ ->
      let t1 = now () and w1 = words () in
      add tbl "core.smc_s" (t1 -. t0);
      add tbl "core.smc_alloc_words" (w1 -. w0);
      let impl = Abs.abs ~cache os'.Os.mon in
      let t2 = now () and w2 = words () in
      add tbl "spec.abs_s" (t2 -. t1);
      add tbl "spec.abs_alloc_words" (w2 -. w1);
      let probe spec n =
        rs.Diff.probe_ok && n = Diff.probe_thread w && Diff.probe_shape spec
      in
      let spec' =
        match
          Aspec.step_smc ~rng_exhausted rs.Diff.spec ~probe
            ~contents:(contents rs ~call ~args) ~call ~args
        with
        | Aspec.Done (s, _, _) -> Some s
        | Aspec.Pending p ->
            Option.map
              (fun outcome -> Aspec.resolve rs.Diff.spec p ~outcome)
              (Aspec.allowed_outcome (Word.to_int (Errors.to_word err)))
        | exception Aspec.Stuck _ -> None
      in
      let t3 = now () in
      add tbl "spec.step_s" (t3 -. t2);
      Option.iter (fun s -> ignore (Astate.diff s impl)) spec';
      add tbl "spec.diff_s" (now () -. t3)

let shadow_keys = [ "os.boot_s"; "core.smc_s"; "spec.abs_s"; "spec.step_s"; "spec.diff_s" ]

let refine size ~seed =
  let tbl = table () in
  let trials = size.refine_trials in
  let tseed = Campaign.trial_seed ~root:seed in
  (* Campaign layer and the untraced reference throughput. *)
  let results, _, reference_s =
    Host.timed_scaled (fun () ->
        campaign tbl ~jobs:1 ~trials
          ~failed:(fun t -> t.Diff.t_divergence <> None)
          (fun i -> Diff.run_trial ~npages ~ops_per_trial ~seed:(tseed i) ()))
  in
  let reference = refine_report (Agg.check ~prefix:results ~failure:None) in
  (* The lockstep pipeline, one boundary at a time. *)
  let cover = Cover.create () in
  let ops_run = ref 0 and diverged = ref false in
  let pipeline () =
  for i = 0 to trials - 1 do
    let ts = tseed i in
    timed tbl "os.boot_s" (fun () -> ignore (Os.boot ~seed:ts ~npages ()));
    let w = timed tbl "spec.make_world_s" (fun () -> Diff.make_world ~npages ~seed:ts ()) in
    Cover.merge_into cover (Diff.world_cover w);
    let ops = timed tbl "spec.gen_ops_s" (fun () -> Diff.gen_ops w ~seed:ts ~n:ops_per_trial) in
    let cache = Abs.cache () in
    let rec go rs k = function
      | [] -> k
      | op :: rest -> (
          let shadow_op () =
            match op with
            | Diff.Smc { call; args; budget } -> shadow tbl w cache rs ~call ~args ~budget
            | Diff.Write_ins _ -> ()
          in
          (* Alternate which of the two goes first, so that neither always
             finds the caches cold. *)
          if k land 1 = 0 then shadow_op ();
          add tbl "spec.apply_op_calls" 1.;
          let r = timed tbl "spec.apply_op_s" (fun () -> Diff.apply_op ~cover rs k op) in
          if k land 1 = 1 then shadow_op ();
          match r with
          | Ok rs' -> go rs' (k + 1) rest
          | Error d ->
              diverged := true;
              d.Diff.index)
    in
    ops_run := !ops_run + go (Diff.initial_rstate w) 0 ops
  done
  in
  let (), traced_wall, traced_s = Host.timed_scaled pipeline in
  let attributed =
    List.fold_left (fun a n -> a +. get tbl n) 0.
      ("spec.make_world_s" :: "spec.gen_ops_s" :: "spec.apply_op_s" :: shadow_keys)
  in
  add tbl "trace.unattributed_share" ((traced_wall -. attributed) /. traced_wall);
  add tbl "trace.throughput_ratio" (reference_s /. traced_s);
  add tbl "spec.glue_s"
    (get tbl "spec.apply_op_s" -. get tbl "core.smc_s" -. get tbl "spec.abs_s"
    -. get tbl "spec.step_s" -. get tbl "spec.diff_s");
  let traced =
    String.concat "\n"
      (Printf.sprintf "trials %d ops %d divergence %b" trials !ops_run !diverged
      :: Cover.report cover)
  in
  (* Monitor phases from the program's own span recorder. *)
  let o =
    Campaign.check ~npages ~ops_per_trial ~profile:true ~clock:now ~jobs:1 ~trials
      ~seed ()
  in
  profile_spans tbl ~op_spans:false o.Diff.spans;
  let profiled = refine_report o in
  let report = if traced = reference && profiled = reference then reference else traced ^ "\n" ^ profiled in
  finish tbl report

(* -- fault_j2: the trial split at its public boundaries ----------------- *)

let fault size ~seed =
  let tbl = table () in
  let trials = size.fault_trials in
  let tseed = Campaign.trial_seed ~root:seed in
  let faults = Drive.all_classes in
  let results, _, reference_s =
    Host.timed_scaled (fun () ->
        campaign tbl ~jobs:fault_jobs ~trials
          ~failed:(fun t -> t.Drive.t_violation <> None)
          (fun i -> Drive.run_trial ~npages ~ops_per_trial ~faults ~seed:(tseed i) ()))
  in
  let o = Agg.fault ~prefix:results ~failure:None in
  let reference =
    fault_report ~trials:o.Drive.trials_run ~fops:o.Drive.total_fops
      ~injections:o.Drive.total_injections ~blackout:o.Drive.blackout
      ~violation:(o.Drive.violation <> None)
  in
  (* Each domain times its own trials into a private table; the tables
     are summed after the pool joins. *)
  let trial i =
    let t = table () in
    let ts = tseed i in
    let start = now () in
    timed t "os.boot_s" (fun () -> ignore (Os.boot ~seed:ts ~npages ()));
    let w = timed t "spec.make_world_s" (fun () -> Diff.make_world ~npages ~seed:ts ()) in
    let fops =
      timed t "fault.gen_fops_s" (fun () -> Drive.gen_fops w ~faults ~seed:ts ~n:ops_per_trial)
    in
    let r = timed t "fault.run_fops_s" (fun () -> Drive.run_fops w fops) in
    (t, r, now () -. start)
  in
  let traced, traced_wall, traced_s =
    Host.timed_scaled (fun () ->
        match
          Cpool.run ~jobs:fault_jobs ~trials ~failed:(fun (_, r, _) -> Result.is_error r) trial
        with
        | Cpool.Completed a -> a
        | Cpool.Stopped { prefix; failure; _ } -> Array.append prefix [| failure |])
  in
  let fops = ref 0 and injections = ref 0 and blackout = ref 0 and violation = ref false in
  let busy = ref 0. in
  Array.iter
    (fun (t, r, b) ->
      Hashtbl.iter (fun k v -> add tbl k v) t;
      busy := !busy +. b;
      match r with
      | Ok (st : Drive.stats) ->
          fops := !fops + st.Drive.fops_run;
          injections := !injections + st.Drive.injections;
          blackout := max !blackout st.Drive.worst_blackout
      | Error (v : Drive.violation) ->
          fops := !fops + v.Drive.index;
          violation := true)
    traced;
  add tbl "fault.injections" (float !injections);
  let attributed =
    List.fold_left (fun a n -> a +. get tbl n) 0.
      [ "os.boot_s"; "spec.make_world_s"; "fault.gen_fops_s"; "fault.run_fops_s" ]
  in
  (* Busy time summed over domains, against wall time times the domains. *)
  let capacity = float fault_jobs *. traced_wall in
  add tbl "trace.unattributed_share" ((capacity -. attributed) /. capacity);
  add tbl "trace.throughput_ratio" (reference_s /. traced_s);
  let traced =
    fault_report ~trials:(Array.length traced) ~fops:!fops ~injections:!injections
      ~blackout:!blackout ~violation:!violation
  in
  let p =
    Campaign.fault ~npages ~ops_per_trial ~profile:true ~clock:now ~jobs:fault_jobs
      ~faults ~trials ~seed ()
  in
  profile_spans tbl ~op_spans:true p.Drive.spans;
  let profiled =
    fault_report ~trials:p.Drive.trials_run ~fops:p.Drive.total_fops
      ~injections:p.Drive.total_injections ~blackout:p.Drive.blackout
      ~violation:(p.Drive.violation <> None)
  in
  let report = if traced = reference && profiled = reference then reference else traced ^ "\n" ^ profiled in
  finish tbl report

(* -- serve: a one-shard pool driver -------------------------------------- *)

(* Serve one shard's worth of sessions round-robin over a fresh pool,
   timing pool creation, each [Pool.serve] and a host-side re-check of
   each published MAC. Returns the number of sessions that failed. *)
let serve_pool tbl size ~seed =
  let cfg = serve_cfg size in
  let sessions = min size.serve_sessions Serve.default_shard_sessions in
  let sseed = Serve.shard_seed ~root:seed 0 in
  let t0 = now () in
  let os = timed tbl "os.boot_s" (fun () -> Os.boot ~seed:sseed ~npages:cfg.Serve.npages ()) in
  let os, pool =
    timed tbl "serve.pool_create_s" (fun () ->
        Spool.create os ~slots:cfg.Serve.slots ~recycle:cfg.Serve.recycle)
  in
  let rng = Workload.rng ~seed:sseed in
  let failed = ref 0 in
  let minor = ref 0. and major = ref 0. in
  let rec go os i =
    if i < sessions then begin
      let slot = Spool.slot pool (i mod Spool.slots pool) in
      let nonce = Workload.nonce rng in
      let mi0 = Gc.minor_words () and _, pr0, ma0 = Gc.counters () in
      let s = now () in
      let os, svc = Spool.serve pool os slot ~nonce in
      add tbl "serve.pool_serve_s" (now () -. s);
      let mi1 = Gc.minor_words () and _, pr1, ma1 = Gc.counters () in
      minor := !minor +. (mi1 -. mi0);
      major := !major +. (ma1 -. ma0) -. (pr1 -. pr0);
      add tbl "serve.pool_serve_calls" 1.;
      let v = svc.Spool.s_verdict in
      let mac = Session.published_mac os ~shared:slot.Spool.shared in
      let ok =
        timed tbl "crypto.attest_verify_s" (fun () ->
            Attest.verify ~key:os.Os.mon.Monitor.attest_key
              ~measurement:slot.Spool.measurement ~data:nonce ~mac)
      in
      if not (ok && Errors.is_success v.Session.v_err && v.Session.v_mac_ok
              && v.Session.v_tamper_rejected)
      then incr failed;
      go os (i + 1)
    end
  in
  go os 0;
  let wall = now () -. t0 in
  add tbl "serve.hit_rate" (Spool.hit_rate pool);
  add tbl "serve.rebuilds" (float (Spool.rebuilds pool));
  add tbl "serve.minor_words_per_session" (!minor /. float sessions);
  add tbl "serve.major_words_per_session" (!major /. float sessions);
  let attributed =
    List.fold_left (fun a n -> a +. get tbl n) 0.
      [ "os.boot_s"; "serve.pool_create_s"; "serve.pool_serve_s"; "crypto.attest_verify_s" ]
  in
  add tbl "trace.unattributed_share" ((wall -. attributed) /. wall);
  !failed

let serve size ~seed ~reference_s =
  let tbl = table () in
  let b, _, traced_s = Host.timed_scaled (fun () -> serve_batch size ~seed) in
  add tbl "trace.throughput_ratio" (reference_s /. traced_s);
  List.iter (fun (n, c) -> add tbl ("serve." ^ n) (float c)) b.cycles;
  let failed = serve_pool tbl size ~seed in
  let report =
    if failed = 0 then b.report
    else Printf.sprintf "%s\npool driver: %d sessions failed" b.report failed
  in
  finish tbl report

(* -- explore: the BFS one level at a time -------------------------------- *)

(* Frontier slice width; the same as the campaign engine's, so shards and
   their merge order match it. *)
let chunk = 64

let explore size ~reference_s =
  let tbl = table () in
  let search () =
    let w = Explore.make_world (explore_cfg size) in
    let visited = Hashtbl.create 4096 in
    Hashtbl.add visited (Explore.node_key (Explore.root w)) ();
    let edges = ref (Explore.prelude_edges w) in
    let levels = ref [] in
    let violation = ref (Explore.prelude_violation w <> None) in
    let frontier = ref [| Explore.root w |] in
    let depth = ref 0 in
    while (not !violation) && !depth < size.explore_depth && Array.length !frontier > 0 do
      incr depth;
      let front = !frontier in
      let n = Array.length front in
      let shards =
        List.init ((n + chunk - 1) / chunk) (fun i ->
            let lo = i * chunk and hi = min n ((i + 1) * chunk) in
            timed tbl "spec.alphabet_s" (fun () ->
                for k = lo to hi - 1 do
                  ignore (Explore.alphabet w front.(k))
                done);
            timed tbl "spec.expand_s" (fun () ->
                Explore.expand_range w ~visited:(Hashtbl.mem visited) ~frontier:front ~lo ~hi))
      in
      let lvl = Agg.explore shards in
      edges := !edges + lvl.Agg.el_edges;
      List.iter
        (fun (key, node, _, _) ->
          timed tbl "spec.node_key_s" (fun () -> ignore (Explore.node_key node));
          Hashtbl.add visited key ())
        lvl.Agg.el_new;
      levels := List.length lvl.Agg.el_new :: !levels;
      if lvl.Agg.el_violation <> None then violation := true;
      frontier := Array.of_list (List.map (fun (_, node, _, _) -> node) lvl.Agg.el_new)
    done;
    (Hashtbl.length visited, !edges, Explore.prelude_edges w, List.rev !levels, !violation)
  in
  let (states, edges, prelude_edges, levels, violation), wall, traced_s =
    Host.timed_scaled search
  in
  add tbl "spec.new_state_ratio" (float (states - 1) /. float (edges - prelude_edges));
  let attributed =
    List.fold_left (fun a n -> a +. get tbl n) 0.
      [ "spec.alphabet_s"; "spec.expand_s"; "spec.node_key_s" ]
  in
  add tbl "trace.unattributed_share" ((wall -. attributed) /. wall);
  add tbl "trace.throughput_ratio" (reference_s /. traced_s);
  finish tbl (explore_report ~states ~edges ~levels ~violation)

(* The traced run of [kind]. [reference_s] is the untraced batch's time,
   rescaled to the reference host speed; refine and fault_j2 time their
   own untraced reference. *)
let run kind size ~seed ~reference_s =
  match kind with
  | Refine -> refine size ~seed
  | Fault_j2 -> fault size ~seed
  | Serve -> serve size ~seed ~reference_s
  | Explore -> explore size ~reference_s
