(** Streaming campaign observability.

    A reporter fed from {!Pool}'s [on_trial] hook: each completed trial
    (serve shard, explore level) updates shared counters under a mutex,
    and periodic snapshots go to a live [\r]-rewritten stderr line
    and/or a JSONL mirror, one ["komodo-progress/1"] object per line.

    The reporter itself keeps only the counters every campaign kind
    shares — units done, ops, failures, coverage — and the snapshot's
    common fields. A kind plugs in through an {!ext}: it folds its own
    counters in {!record}'s update (they live in the kind's closures,
    not here) and appends its snapshot fields and renders its live line.

    The reporter only observes: it never influences trial content or
    the campaign report, so `-j 1` / `-j N` stdout stays byte-identical
    with progress on. The clock is injected (no unix dependency here);
    wallclock-derived fields exist only inside snapshots. *)

val schema : string
(** The snapshot schema tag, ["komodo-progress/1"]. *)

type t

val create :
  ?interval:float ->
  ?live:bool ->
  ?jsonl:out_channel ->
  now:(unit -> float) ->
  label:string ->
  total:int ->
  unit ->
  t
(** [interval] is the minimum seconds between emitted snapshots
    (default 0.5; 0 emits one per trial); [live] renders the stderr
    line; [jsonl] mirrors snapshots to a channel, flushed after each
    one, so a sink that fails raises from {!record} (surfacing as a
    {!Pool.Observer_error}). [now] supplies wallclock seconds. *)

(** The shared counters, as a kind's extension sees them when
    rendering. *)
type view = {
  label : string;
  done_ : int;  (** units folded in: trials, shards or levels *)
  total : int;
  elapsed : float;  (** wallclock seconds since {!create} *)
  ops : int;
  failures : int;  (** divergences or violations seen *)
  cover : Komodo_spec.Cover.t;  (** merged coverage (checking kinds) *)
}

(** A campaign kind's rendering. *)
type ext = {
  fields : view -> (string * Komodo_telemetry.Json.t) list;
      (** appended to every snapshot after the shared fields *)
  line : view -> string;  (** the live line after ["komodo <label>: "] *)
}

val plain : ext
(** No extra fields; the line is {!trials_line}, {!cover_line} and the
    op count. The rendering before any unit is folded in. *)

val record :
  t ->
  ext ->
  ?cover:Komodo_spec.Cover.t ->
  ops:int ->
  failed:bool ->
  (unit -> unit) ->
  unit
(** [record t ext ~ops ~failed update] folds one finished unit in:
    bumps the shared counters (merging [cover] if given), runs the
    kind's [update] under the reporter's lock, and emits a snapshot
    rendered with [ext] if one is due. Thread-safe. *)

val per_s : view -> int -> float
(** [per_s v n] is [n] per elapsed second (0 before any time passed). *)

val trials_line : view -> string
(** ["<done>/<total> trials, <rate> trials/s"]. *)

val cover_line : view -> string
(** ["cover smc <n> svc <n>"]: covered SMC and SVC call counts. *)

val add_counts : (string * int) list -> (string * int) list -> (string * int) list
(** Sum two per-class count lists, keeping the first list's order. *)

val counts_json : (string * int) list -> Komodo_telemetry.Json.t

val line : t -> string
(** The live line as it would render now, without the leading [\r]. *)

val finish : t -> unit
(** Emit a final snapshot unconditionally, terminate the live line,
    flush the JSONL channel. *)

val snapshots : t -> int
(** Snapshots emitted so far (tests). *)
