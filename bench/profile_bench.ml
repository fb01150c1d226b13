(** Observability overhead and span determinism (the `profile` section).

    Three passes over the fixed regression-anchor check campaign
    (200 trials, seed 7, -j 1): observability off, metrics registry
    attached, full span profiling. The off pass must stay within 3% of
    the pre-observability check throughput frozen below — the
    instrumentation's null fast path is one [is_null] branch per site
    and must cost nothing measurable. The floor is scaled by the shared
    host calibration ({!Runner.host_scale}), and only binds at the full
    trial count ([KOMODO_THROUGHPUT_TRIALS] smoke runs skip it).

    The profiling pass must also aggregate to a byte-identical span
    tree at -j 1 and -j 2: clock-free recorders are pure functions of
    the instrumented execution, so parallelism cannot show through.

    Results land in BENCH_profile.json; wallclock-derived fields carry
    a [wall_] prefix so `komodo bench --compare` skips them while
    holding the deterministic span counts exact. *)

module Diff = Komodo_spec.Diff
module Span = Komodo_telemetry.Span
module Json = Komodo_telemetry.Json
module Kinds = Komodo_campaign.Kinds

let seed = 7
let full_trials = 200

(* The reference-host throughput of the check campaign, frozen when
   the observability layer landed (the check row of the throughput
   baseline of that build), minus the 3% observability budget. *)
let baseline_check_tps = 181.6
let off_floor = baseline_check_tps *. 0.97

let run () =
  Report.print_header "Observability overhead and span determinism";
  let trials =
    Option.value (Runner.env_count "KOMODO_THROUGHPUT_TRIALS") ~default:full_trials
  in
  let smoke = trials <> full_trials in
  let eff_floor = Runner.scaled off_floor in
  let campaign ?(metrics = false) ?(profile = false) ?(jobs = 1) () =
    Runner.campaign (module Kinds.Check) ~jobs
      { Runner.check_config with metrics; profile }
      ~trials ~seed
  in
  let _off, t_off = Runner.timed (fun () -> campaign ()) in
  let _met, t_met = Runner.timed (fun () -> campaign ~metrics:true ()) in
  let prof, t_prof = Runner.timed (fun () -> campaign ~profile:true ()) in
  (* Determinism: a second profiled pass on two domains must aggregate
     to the very same tree. *)
  let prof2 = campaign ~profile:true ~jobs:2 () in
  let tree1 = Span.render_tree (Span.aggregate prof.Diff.spans) in
  let tree2 = Span.render_tree (Span.aggregate prof2.Diff.spans) in
  if tree1 <> tree2 then begin
    print_endline "span tree differs between -j 1 and -j 2:";
    print_endline tree1;
    print_endline "--- vs ---";
    print_endline tree2;
    exit 1
  end;
  let spans_total = Span.total_spans prof.Diff.spans in
  let span_cycles =
    List.fold_left (fun a n -> a + n.Span.sp_cycles) 0 prof.Diff.spans
  in
  let tps t = if t <= 0. then 0. else float_of_int trials /. t in
  let pct base t = if base <= 0. then 0. else ((t -. base) /. base) *. 100. in
  let floor_cell v = if smoke then "n/a (smoke)" else Printf.sprintf "%.1f" v in
  Report.print_table
    ~columns:[ "pass"; "trials"; "seconds"; "trials/sec"; "overhead"; "floor" ]
    [
      [
        "observability off"; string_of_int trials; Printf.sprintf "%.3f" t_off;
        Printf.sprintf "%.1f" (tps t_off); "-"; floor_cell eff_floor;
      ];
      [
        "metrics registry"; string_of_int trials; Printf.sprintf "%.3f" t_met;
        Printf.sprintf "%.1f" (tps t_met);
        Printf.sprintf "%+.1f%%" (pct t_off t_met); "-";
      ];
      [
        "span profiling"; string_of_int trials; Printf.sprintf "%.3f" t_prof;
        Printf.sprintf "%.1f" (tps t_prof);
        Printf.sprintf "%+.1f%%" (pct t_off t_prof); "-";
      ];
    ];
  Printf.printf
    "\nspan tree: %d spans, %d modelled cycles, identical at -j 1 and -j 2\n"
    spans_total span_cycles;
  Report.emit_json ~name:"profile"
    (Json.Obj
       [
         ("trials", Json.Int trials);
         ("spans_total", Json.Int spans_total);
         ("span_cycles", Json.Int span_cycles);
         ("tree_identical_j1_j2", Json.Bool true);
         ("wall_off_s", Json.Float t_off);
         ("wall_metrics_s", Json.Float t_met);
         ("wall_profile_s", Json.Float t_prof);
         ("wall_off_trials_per_s", Json.Float (tps t_off));
         ("wall_metrics_trials_per_s", Json.Float (tps t_met));
         ("wall_profile_trials_per_s", Json.Float (tps t_prof));
         ("wall_floor_off_trials_per_s", Json.Float eff_floor);
         ("wall_overhead_metrics_pct", Json.Float (pct t_off t_met));
         ("wall_overhead_profile_pct", Json.Float (pct t_off t_prof));
       ]);
  if (not smoke) && tps t_off < eff_floor then begin
    Printf.printf
      "OBSERVABILITY REGRESSION: off-path throughput %.1f trials/s is below \
       the floor %.1f (baseline %.1f - 3%%, host scale %.2f)\n"
      (tps t_off) eff_floor baseline_check_tps (Runner.host_scale ());
    exit 1
  end
