(** Streaming campaign observability.

    A reporter fed from {!Pool}'s [on_trial] hook: each completed trial
    (serve shard, explore level) updates shared counters under a mutex,
    and periodic snapshots go to a live [\r]-rewritten stderr line
    and/or a JSONL mirror, one ["komodo-progress/1"] object per line.

    The reporter itself keeps only what every campaign kind fills —
    units done, ops, failures — and the snapshot's common fields. A
    kind plugs in through an {!observer}: its units fold into one
    running merge, from which its {!render} appends the kind's own
    snapshot fields and draws its live line.

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
    one, so a sink that fails raises from an {!observer} (surfacing as a
    {!Pool.Observer_error}). [now] supplies wallclock seconds. *)

(** The shared counters, as a kind's rendering sees them. *)
type view = {
  done_ : int;  (** units folded in: trials, shards or levels *)
  total : int;
  elapsed : float;  (** wallclock seconds since {!create} *)
  ops : int;  (** the running merge's op count *)
  failures : int;  (** divergences or violations seen *)
}

(** A campaign kind's rendering of its running merge ['acc]. *)
type 'acc render = {
  fields : view -> 'acc -> (string * Komodo_telemetry.Json.t) list;
      (** appended to every snapshot after the shared fields *)
  line : view -> 'acc -> string;  (** the live line after ["komodo <label>: "] *)
}

val observer :
  t ->
  ?ops:('acc -> int) ->
  ?failed:('item -> bool) ->
  init:'acc ->
  merge:('acc -> 'item -> 'acc) ->
  'acc render ->
  'item ->
  unit
(** [observer t ~init ~merge r] is a fresh observer for one campaign.
    Each call folds one finished unit (trial, shard or level) into one
    running merge with [merge] — the kind's report merge — under the
    reporter's lock, so [merge] may update the accumulator in place;
    then counts the unit (a failure if [failed], default never), reads
    [ops] off the merge (default 0) and emits a snapshot rendered with
    [r] if one is due. Thread-safe. *)

val per_s : view -> int -> float
(** [per_s v n] is [n] per elapsed second (0 before any time passed). *)

val trials_line : view -> string
(** ["<done>/<total> trials, <rate> trials/s"]. *)

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
