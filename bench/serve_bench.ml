(** Attestation-serving benchmark: sessions/sec and latency SLOs.

    Runs the fixed serve campaign — [serve --sessions 20000 --seed 7]
    at [-j 1] — and holds it to two kinds of floor:

    - {b deterministic ceilings} in model cycles: p99 enter, p99 attest
      (full service incl. churn and in-enclave re-verify) and p99
      sojourn must stay under fixed SLOs. These are pure functions of
      (cfg, seed) — any drift is a real cost change, and they diff
      byte-for-byte in [BENCH_serve.json] against the baseline;
    - a {b wallclock floor} on sessions/sec, host-calibrated like the
      campaign throughput floor. Wallclock values are emitted only
      under [wall_]-prefixed keys, which `komodo bench --compare`
      skips.

    [KOMODO_SERVE_SESSIONS] overrides the session count (CI smoke);
    floors and ceilings only bind at the full count. *)

module Serve = Komodo_serve.Serve
module SReport = Komodo_serve.Report
module Hist = Komodo_telemetry.Hist
module Json = Komodo_telemetry.Json

let full_sessions = 20_000
let seed = 7

(* Model-cycle SLO ceilings (p99, deterministic). The reference run
   measures enter p99 = 13033, attest p99 = 221183 (a recycle rebuild
   plus an in-enclave re-verify in the tail), sojourn p99 = 233471;
   ceilings leave ~30% headroom for legitimate cost-model drift. *)
let enter_p99_ceiling = 17_000
let attest_p99_ceiling = 290_000
let sojourn_p99_ceiling = 330_000

(* Wallclock floor: sessions/sec at -j 1 on the reference host, scaled
   by the same SHA-256 calibration as the campaign throughput floor. *)
let rate_floor = 800.0

let run () =
  Report.print_header "Attestation serving (sessions/sec, p99 SLOs)";
  let sessions =
    Option.value (Runner.env_count "KOMODO_SERVE_SESSIONS") ~default:full_sessions
  in
  let smoke = sessions <> full_sessions in
  let cfg = { Serve.defaults with Serve.sessions } in
  let r, wall = Runner.timed (fun () -> Serve.run ~jobs:1 ~cfg ~seed ()) in
  if r.SReport.verify_failures > 0 then begin
    Printf.printf "ATTESTATION FAILURES: %d sessions failed verification\n"
      r.SReport.verify_failures;
    exit 1
  end;
  let rate = if wall > 0. then float_of_int r.SReport.served /. wall else 0. in
  let eff_rate_floor = Runner.scaled rate_floor in
  let enter99 = Hist.p99 r.SReport.h_enter in
  let attest99 = Hist.p99 r.SReport.h_attest in
  let sojourn99 = Hist.p99 r.SReport.h_sojourn in
  print_string (SReport.render r);
  Printf.printf "\n%d sessions in %.2fs: %.0f sessions/s at -j 1\n"
    r.SReport.served wall rate;
  (* Deterministic metrics diff exactly; wallclock only under wall_. *)
  (* The report carries its own komodo-serve/1 tag; the bench mirror
     must carry komodo-bench/1 (added by emit_json), so drop it here. *)
  Report.emit_json ~name:"serve"
    (match SReport.to_json r with
    | Json.Obj kvs ->
        Json.Obj
          (List.filter (fun (k, _) -> k <> "schema") kvs
          @ [
              ("smoke", Json.Bool smoke);
              ("enter_p99_ceiling", Json.Int enter_p99_ceiling);
              ("attest_p99_ceiling", Json.Int attest_p99_ceiling);
              ("sojourn_p99_ceiling", Json.Int sojourn_p99_ceiling);
              ("wall_seconds", Json.Float wall);
              ("wall_sessions_per_s", Json.Float rate);
              ("wall_rate_floor", Json.Float rate_floor);
            ])
    | other -> other);
  if smoke then
    Printf.printf "smoke run (%d sessions): floors not binding, JSON mirror written\n"
      sessions
  else begin
    Printf.printf
      "p99 enter %d / attest %d / sojourn %d cycles (ceilings %d / %d / %d); \
       rate floor %.0f/s scaled to %.0f/s\n"
      enter99 attest99 sojourn99 enter_p99_ceiling attest_p99_ceiling
      sojourn_p99_ceiling rate_floor eff_rate_floor;
    let bad = ref false in
    if enter99 > enter_p99_ceiling || attest99 > attest_p99_ceiling
       || sojourn99 > sojourn_p99_ceiling
    then begin
      Printf.printf "LATENCY SLO EXCEEDED\n";
      bad := true
    end;
    if rate < eff_rate_floor then begin
      Printf.printf "SERVING THROUGHPUT BELOW FLOOR\n";
      bad := true
    end;
    if !bad then exit 1
  end
