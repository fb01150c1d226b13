(** Campaign-engine scaling and determinism.

    Runs the refinement and fault campaigns at `-j 1` and `-j 4` on
    the same root seed, asserts the two reports are identical (merged
    coverage, trial/op totals, blackout — the determinism contract the
    engine promises), and records the wallclock speedup. On a host
    with >= 4 cores the refinement campaign must speed up by >= 2.5x;
    on smaller hosts the determinism assertions still bind and the
    measured (≈1x) speedup is recorded with the core count so the
    JSON mirror explains itself. Timings, speedups and the core count
    are host-dependent, so they carry [wall_] names. *)

module Diff = Komodo_spec.Diff
module Drive = Komodo_fault.Drive
module Cover = Komodo_spec.Cover
module Campaign = Komodo_campaign.Campaign
module Kinds = Komodo_campaign.Kinds

let par_jobs = 4
let speedup_target = 2.5

let check_campaign ~jobs =
  Runner.campaign (module Kinds.Check) ~jobs Runner.check_config ~trials:40 ~seed:7

let fault_campaign ~jobs =
  Runner.campaign (module Kinds.Fault) ~jobs Runner.fault_config ~trials:25 ~seed:42

let run () =
  Report.print_header "Campaign engine (domain-parallel, deterministic)";
  let cores = Campaign.default_jobs () in
  let c1, ct1 = Runner.timed (fun () -> check_campaign ~jobs:1) in
  let cn, ctn = Runner.timed (fun () -> check_campaign ~jobs:par_jobs) in
  (* The determinism contract, asserted on the real artifacts: same
     merged coverage (hence the same report text), same totals. *)
  assert (Cover.equal c1.Diff.cover cn.Diff.cover);
  assert (Cover.report c1.Diff.cover = Cover.report cn.Diff.cover);
  assert (c1.Diff.trials_run = cn.Diff.trials_run);
  assert (c1.Diff.ops_run = cn.Diff.ops_run);
  let f1, ft1 = Runner.timed (fun () -> fault_campaign ~jobs:1) in
  let fn, ftn = Runner.timed (fun () -> fault_campaign ~jobs:par_jobs) in
  assert (f1.Drive.total_fops = fn.Drive.total_fops);
  assert (f1.Drive.total_injections = fn.Drive.total_injections);
  assert (f1.Drive.blackout = fn.Drive.blackout);
  let speedup seq par = if par <= 0. then 0. else seq /. par in
  let csp = speedup ct1 ctn and fsp = speedup ft1 ftn in
  let secs = Printf.sprintf "%.2f" in
  Report.print_table ~json_name:"campaign"
    ~columns:[ "metric"; "value" ]
    [
      [ "wall_cores"; string_of_int cores ];
      [ "wall_parallel_jobs"; string_of_int par_jobs ];
      [ "refinement trials"; string_of_int c1.Diff.trials_run ];
      [ "wall_refinement_j1_s"; secs ct1 ];
      [ Printf.sprintf "wall_refinement_j%d_s" par_jobs; secs ctn ];
      [ "wall_refinement_speedup"; Printf.sprintf "%.2fx" csp ];
      [ "fault trials"; string_of_int f1.Drive.trials_run ];
      [ "wall_fault_j1_s"; secs ft1 ];
      [ Printf.sprintf "wall_fault_j%d_s" par_jobs; secs ftn ];
      [ "wall_fault_speedup"; Printf.sprintf "%.2fx" fsp ];
      [ "reports identical at -j 1 vs -j 4"; "yes (asserted)" ];
    ];
  if cores >= par_jobs then begin
    Printf.printf
      "\nrefinement speedup %.2fx at -j %d on %d cores (target >= %.1fx): %s\n"
      csp par_jobs cores speedup_target
      (if csp >= speedup_target then "ok" else "BELOW TARGET");
    assert (csp >= speedup_target)
  end
  else
    Printf.printf
      "\nonly %d core(s) available: speedup target (>= %.1fx at -j %d) not \
       measurable here; determinism asserted, wallclock recorded\n"
      cores speedup_target par_jobs
