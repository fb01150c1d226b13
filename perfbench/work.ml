(* The four benchmark workloads, each a fixed-size batch run through the
   program's public campaign entry points and reduced to a deterministic
   report. The report is a pure function of (workload, size, seed) at any
   [-j], so the output check compares it byte for byte. *)

module Campaign = Komodo_campaign.Campaign
module Diff = Komodo_spec.Diff
module Cover = Komodo_spec.Cover
module Explore = Komodo_spec.Explore
module Drive = Komodo_fault.Drive
module Os = Komodo_os.Os
module Serve = Komodo_serve.Serve
module Spool = Komodo_serve.Pool
module Report = Komodo_serve.Report
module Hist = Komodo_telemetry.Hist

type kind = Refine | Fault_j2 | Serve | Explore

let kinds = [ Refine; Fault_j2; Serve; Explore ]

let name = function
  | Refine -> "refine"
  | Fault_j2 -> "fault_j2"
  | Serve -> "serve"
  | Explore -> "explore"

let of_name s = List.find_opt (fun k -> name k = s) kinds

(* What one unit of work is, for throughput and allocation per unit. *)
let unit_name = function
  | Refine | Fault_j2 -> "trial"
  | Serve -> "session"
  | Explore -> "edge"

type size = {
  refine_trials : int;
  fault_trials : int;
  serve_sessions : int;
  explore_pages : int;
  explore_depth : int;
}

(* Batch sizes: one batch of each workload takes one to two seconds on a
   2-core x86-64 host. *)
let full =
  {
    refine_trials = 200;
    fault_trials = 240;
    serve_sessions = 3 * Serve.default_shard_sessions;
    explore_pages = 6;
    explore_depth = 9;
  }

(* The self-tests' smoke size. *)
let tiny =
  {
    refine_trials = 3;
    fault_trials = 4;
    serve_sessions = 300;
    explore_pages = 6;
    explore_depth = 3;
  }

(* The check and fault campaigns' defaults (`komodo check`, `komodo fault`). *)
let npages = 40
let ops_per_trial = 40

(* fault_j2 runs the campaign pool on two domains. The count is fixed,
   not read from the host, so that the workload is the same everywhere. *)
let fault_jobs = 2

let serve_cfg size = { Serve.defaults with Serve.sessions = size.serve_sessions }

let explore_cfg size =
  {
    Explore.pages = size.explore_pages;
    depth = size.explore_depth;
    seed = 0;
    mutate = None;
  }

(* One batch: units attempted, units failed (divergences, violations,
   MAC-verify failures), the deterministic report, and the serve latency
   quantiles in model cycles. *)
type batch = {
  units : int;
  failed : int;
  report : string;
  cycles : (string * int) list;
}

let refine_report (o : Diff.outcome) =
  String.concat "\n"
    (Printf.sprintf "trials %d ops %d divergence %b" o.Diff.trials_run
       o.Diff.ops_run (o.Diff.divergence <> None)
    :: Cover.report o.Diff.cover)

let fault_report ~trials ~fops ~injections ~blackout ~violation =
  Printf.sprintf "trials %d fops %d injections %d blackout %d violation %b"
    trials fops injections blackout violation

let explore_report ~states ~edges ~levels ~violation =
  Printf.sprintf "states %d edges %d levels %s violation %b" states edges
    (String.concat "," (List.map string_of_int levels))
    violation

let serve_cycles (r : Report.t) =
  [
    ("sojourn_p50_cycles", Hist.p50 r.Report.h_sojourn);
    ("sojourn_p99_cycles", Hist.p99 r.Report.h_sojourn);
    ("attest_p99_cycles", Hist.p99 r.Report.h_attest);
  ]

let refine_batch size ~seed =
  let o =
    Campaign.check ~npages ~ops_per_trial ~jobs:1 ~trials:size.refine_trials ~seed ()
  in
  {
    units = size.refine_trials;
    failed = (if o.Diff.divergence = None then 0 else 1);
    report = refine_report o;
    cycles = [];
  }

let fault_batch ?(jobs = fault_jobs) size ~seed =
  let o =
    Campaign.fault ~npages ~ops_per_trial ~jobs ~faults:Drive.all_classes
      ~trials:size.fault_trials ~seed ()
  in
  let violation = o.Drive.violation <> None in
  {
    units = size.fault_trials;
    failed = (if violation then 1 else 0);
    report =
      fault_report ~trials:o.Drive.trials_run ~fops:o.Drive.total_fops
        ~injections:o.Drive.total_injections ~blackout:o.Drive.blackout ~violation;
    cycles = [];
  }

let serve_batch size ~seed =
  let r = Serve.run ~jobs:1 ~cfg:(serve_cfg size) ~seed () in
  {
    units = r.Report.offered;
    failed = r.Report.verify_failures;
    report = Report.render r;
    cycles = serve_cycles r;
  }

let explore_batch size =
  let r = Campaign.explore ~jobs:1 ~config:(explore_cfg size) () in
  let violation = r.Explore.x_violation <> None in
  {
    units = r.Explore.x_edges;
    failed = (if violation then 1 else 0);
    report =
      explore_report ~states:r.Explore.x_states ~edges:r.Explore.x_edges
        ~levels:r.Explore.x_levels ~violation;
    cycles = [];
  }

let batch kind size ~seed =
  match kind with
  | Refine -> refine_batch size ~seed
  | Fault_j2 -> fault_batch size ~seed
  | Serve -> serve_batch size ~seed
  | Explore -> explore_batch size

(* The one-time preparation before a batch: the first trial's world, the
   first shard's booted platform and enclave pool, or the explorer's
   world. *)
let setup kind size ~seed =
  match kind with
  | Refine | Fault_j2 ->
      ignore (Diff.make_world ~npages ~seed:(Campaign.trial_seed ~root:seed 0) ())
  | Serve ->
      let cfg = serve_cfg size in
      let os =
        Os.boot ~seed:(Serve.shard_seed ~root:seed 0) ~npages:cfg.Serve.npages ()
      in
      ignore (Spool.create os ~slots:cfg.Serve.slots ~recycle:cfg.Serve.recycle)
  | Explore -> ignore (Explore.make_world (explore_cfg size))

let digest report = Digest.to_hex (Digest.string report)
