(* The serve campaign: attestation-as-a-service at scale.

   A serve run multiplexes up to millions of simulated client sessions
   over recycled enclave pools. Sessions are partitioned into fixed-size
   shards — the shard count is a pure function of the session count,
   never of `-j` — and each shard runs the {!Engine} in its own booted
   world on a campaign {!Komodo_campaign.Pool} domain, seeded by
   [Seedsplit.derive (root, shard)]. Shard reports come back in index
   order and fold through the order-insensitive {!Report} merge, so the
   stdout report is byte-identical at `-j 1` and `-j N` — the same
   contract `komodo check` and `komodo fault` honour. *)

module Cpool = Komodo_campaign.Pool
module Seedsplit = Komodo_rand.Seedsplit
module Progress = Komodo_campaign.Progress
module Json = Komodo_telemetry.Json
module Hist = Komodo_telemetry.Hist

type cfg = {
  sessions : int;  (** total sessions across all shards *)
  shard_sessions : int;  (** sessions per shard (last shard takes the rest) *)
  slots : int;  (** pool slots per shard *)
  recycle : int;  (** recycle period; 0 = never *)
  queue : int;  (** admission queue capacity per shard *)
  policy : Backpressure.policy;
  mode : Workload.mode;
  gap : int;  (** open-loop mean inter-arrival gap, model cycles *)
  everify : int;  (** route every Nth session in-enclave; 0 = never *)
  npages : int;  (** secure pages per shard world *)
}

let default_shard_sessions = 4096

let defaults =
  {
    sessions = 100_000;
    shard_sessions = default_shard_sessions;
    slots = 4;
    recycle = 64;
    queue = 64;
    policy = Backpressure.Drop;
    mode = Workload.Open Workload.Poisson;
    (* ~80% utilisation of 4 slots at the ~40k-cycle warm service cost:
       loaded but not saturated, so queueing dynamics are exercised
       without mass shedding *)
    gap = 12_500;
    everify = 32;
    npages = 128;
  }

(** Shard count: a pure function of the session count — never of [-j],
    which only decides how many shards run concurrently. *)
let shards ~sessions ~shard_sessions =
  if sessions <= 0 then invalid_arg "Serve.shards: sessions";
  if shard_sessions <= 0 then invalid_arg "Serve.shards: shard_sessions";
  (sessions + shard_sessions - 1) / shard_sessions

let shard_seed ~root index = Seedsplit.derive ~root index

(* The serve campaign's progress: shard reports fold through the one
   report merge into a running report, rendered as sessions/sec, pool
   hit rate and p50/p99 enter and attest latency. *)
let progress_observer p =
  let fields v (acc : Report.t) =
    [
      ( "serve",
        Json.Obj
          [
            ("served", Json.Int acc.served);
            ("shed", Json.Int (Report.shed acc));
            ("sessions_per_s", Json.Float (Progress.per_s v acc.served));
            ("pool_hit_rate", Json.Float (Report.hit_rate acc));
            ("enter_p50", Json.Int (Hist.p50 acc.h_enter));
            ("enter_p99", Json.Int (Hist.p99 acc.h_enter));
            ("attest_p50", Json.Int (Hist.p50 acc.h_attest));
            ("attest_p99", Json.Int (Hist.p99 acc.h_attest));
          ] );
    ]
  in
  let line (v : Progress.view) (acc : Report.t) =
    Printf.sprintf
      "%d/%d shards, %d sessions (%.0f/s), hit %.1f%%, enter p50/p99 %d/%d, attest \
       p50/p99 %d/%d"
      v.done_ v.total acc.served (Progress.per_s v acc.served)
      (let total = acc.warm + acc.cold in
       if total = 0 then 100.0 else 100.0 *. float_of_int acc.warm /. float_of_int total)
      (Hist.p50 acc.h_enter) (Hist.p99 acc.h_enter) (Hist.p50 acc.h_attest)
      (Hist.p99 acc.h_attest)
  in
  let merge acc r =
    Report.merge_into acc r;
    acc
  in
  Progress.observer p ~init:(Report.create ()) ~merge { fields; line }

(** Run the campaign. The report is a pure function of [(cfg, seed)];
    [jobs] and [progress] cannot change a byte of it. *)
let run ?progress ?jobs ~cfg ~seed () =
  let jobs = Komodo_campaign.Driver.resolve_jobs jobs in
  let n = shards ~sessions:cfg.sessions ~shard_sessions:cfg.shard_sessions in
  let shard_sessions i =
    if i < n - 1 then cfg.shard_sessions
    else cfg.sessions - ((n - 1) * cfg.shard_sessions)
  in
  let tseed = shard_seed ~root:seed in
  let ecfg i =
    {
      Engine.e_sessions = shard_sessions i;
      e_slots = cfg.slots;
      e_recycle = cfg.recycle;
      e_queue = cfg.queue;
      e_policy = cfg.policy;
      e_mode = cfg.mode;
      e_gap = cfg.gap;
      e_everify = cfg.everify;
      e_npages = cfg.npages;
    }
  in
  let run_shard i = Engine.run (ecfg i) ~seed:(tseed i) in
  let on_trial =
    Option.map
      (fun p ->
        let observe = progress_observer p in
        fun _ -> observe)
      progress
  in
  let finish r = Option.iter Progress.finish progress; r in
  let label i = Printf.sprintf "serve shard %d (seed %d)" i (tseed i) in
  finish
  @@
  match
    Cpool.run ~label ?on_trial ~jobs ~trials:n ~failed:(fun _ -> false) run_shard
  with
  | Cpool.Completed reports -> Report.merge reports
  | Cpool.Stopped _ ->
      (* unreachable: the failure predicate is constant-false, and shard
         violations raise (propagated by the pool as Trial_error) *)
      assert false
