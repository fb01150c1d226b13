(** Campaign throughput: trials per second, tracked across PRs.

    Runs the two fixed campaigns the repo uses as its regression
    anchors — `check --trials 200 --seed 7` and `fault --trials 100
    --seed 7` — single-domain, and records trials/sec into
    [BENCH_throughput.json]. The nominal floors below are 3x the
    throughput of the seed (per-word map) memory representation
    measured on a quiet 1-core container (check: 200 trials / 4.33 s
    = 46.2 t/s; fault: 100 trials / 13.66 s = 7.3 t/s); a regression
    that drops either campaign below its floor fails the bench.

    Wallclock floors are host-speed-sensitive, so they scale by the
    shared host calibration ({!Runner.calibration}). The seed
    representation's throughput would scale the same way, so the
    "3x over seed" criterion survives slow or contended runners. The
    wallclock columns carry [wall_] names.

    [KOMODO_THROUGHPUT_TRIALS] overrides the trial counts (CI smoke
    runs with a tiny count); the floors only bind at the full counts,
    since tiny runs are dominated by startup. *)

module Diff = Komodo_spec.Diff
module Drive = Komodo_fault.Drive
module Kinds = Komodo_campaign.Kinds

let full_check_trials = 200
let full_fault_trials = 100
let seed = 7

(* 3x the seed representation's throughput on the reference host. *)
let check_floor = 138.0
let fault_floor = 21.9

let run () =
  Report.print_header "Campaign throughput (trials/sec, -j 1)";
  let check_trials, fault_trials =
    match Runner.env_count "KOMODO_THROUGHPUT_TRIALS" with
    | None -> (full_check_trials, full_fault_trials)
    | Some n -> (n, n)
  in
  let smoke = check_trials <> full_check_trials in
  let calib = Lazy.force Runner.calibration in
  let eff_check_floor = Runner.scaled check_floor
  and eff_fault_floor = Runner.scaled fault_floor in
  let c, ct =
    Runner.timed (fun () ->
        Runner.campaign (module Kinds.Check) ~jobs:1 Runner.check_config
          ~trials:check_trials ~seed)
  in
  let f, ft =
    Runner.timed (fun () ->
        Runner.campaign (module Kinds.Fault) ~jobs:1 Runner.fault_config
          ~trials:fault_trials ~seed)
  in
  let tps trials secs = if secs <= 0. then 0. else float_of_int trials /. secs in
  let ctps = tps c.Diff.trials_run ct and ftps = tps f.Drive.trials_run ft in
  let floor_cell v = if smoke then "n/a (smoke)" else Printf.sprintf "%.1f" v in
  Report.print_table ~json_name:"throughput"
    ~columns:[ "campaign"; "trials"; "wall_seconds"; "wall_trials_per_s"; "wall_floor" ]
    [
      [
        "check (refinement)";
        string_of_int c.Diff.trials_run;
        Printf.sprintf "%.3f" ct;
        Printf.sprintf "%.1f" ctps;
        floor_cell check_floor;
      ];
      [
        "fault (injection)";
        string_of_int f.Drive.trials_run;
        Printf.sprintf "%.3f" ft;
        Printf.sprintf "%.1f" ftps;
        floor_cell fault_floor;
      ];
    ];
  if smoke then
    Printf.printf
      "\nsmoke run (%d trials): floors not binding, JSON mirror written\n"
      check_trials
  else begin
    Printf.printf
      "\ncheck %.1f t/s, fault %.1f t/s (floors %.1f / %.1f; host calibration \
       %.3fs vs %.3fs nominal -> scaled to %.1f / %.1f)\n"
      ctps ftps check_floor fault_floor calib Runner.calib_nominal eff_check_floor
      eff_fault_floor;
    if ctps < eff_check_floor || ftps < eff_fault_floor then begin
      Printf.printf "THROUGHPUT BELOW FLOOR\n";
      exit 1
    end
  end
