(* Streaming campaign observability: a mutex-protected reporter fed
   from Pool's [on_trial] hook (any domain), emitting periodic
   snapshots to a live stderr line and/or a JSONL mirror.

   Strictly an observer: it never touches trial content or the campaign
   report, so enabling it cannot perturb the byte-identical `-j 1` /
   `-j N` contract. The clock is injected — the library takes no unix
   dependency, and tests drive it with a fake clock for deterministic
   snapshot streams. All wallclock-derived fields (elapsed, trials/s)
   live only in the snapshots, never in campaign output.

   The reporter keeps only what every campaign kind shares (trials
   done, ops, failures, coverage); a kind's own counters live in the
   closures of the [ext] it folds its trials through. *)

module Cover = Komodo_spec.Cover
module Json = Komodo_telemetry.Json

let schema = "komodo-progress/1"

type view = {
  label : string;
  done_ : int;
  total : int;
  elapsed : float;
  ops : int;
  failures : int;
  cover : Cover.t;
}

type ext = {
  fields : view -> (string * Json.t) list;
  line : view -> string;
}

let per_s v n = if v.elapsed > 0. then float_of_int n /. v.elapsed else 0.
let covered l = List.length (List.filter (fun (_, n) -> n > 0) l)

let trials_line v =
  Printf.sprintf "%d/%d trials, %.1f trials/s" v.done_ v.total (per_s v v.done_)

let cover_line v =
  Printf.sprintf "cover smc %d svc %d"
    (covered (Cover.smc_covered v.cover))
    (covered (Cover.svc_covered v.cover))

let plain =
  {
    fields = (fun _ -> []);
    line =
      (fun v -> Printf.sprintf "%s, %s, %d ops" (trials_line v) (cover_line v) v.ops);
  }

let add_counts acc cs =
  if acc = [] then cs
  else List.map (fun (k, n) -> (k, n + Option.value (List.assoc_opt k cs) ~default:0)) acc

let counts_json cs = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) cs)

type t = {
  now : unit -> float;
  interval : float;
  live : bool;
  jsonl : out_channel option;
  label : string;
  total : int;
  mu : Mutex.t;
  started : float;
  mutable done_ : int;
  mutable ops : int;
  mutable failures : int;  (** divergences or violations seen *)
  cover : Cover.t;
  mutable ext : ext;  (** the rendering of the last kind folded in *)
  mutable last_emit : float;
  mutable emitted : int;
}

let create ?(interval = 0.5) ?(live = false) ?jsonl ~now ~label ~total () =
  {
    now;
    interval;
    live;
    jsonl;
    label;
    total;
    mu = Mutex.create ();
    started = now ();
    done_ = 0;
    ops = 0;
    failures = 0;
    cover = Cover.create ();
    ext = plain;
    last_emit = neg_infinity;
    emitted = 0;
  }

let view t elapsed =
  {
    label = t.label;
    done_ = t.done_;
    total = t.total;
    elapsed;
    ops = t.ops;
    failures = t.failures;
    cover = t.cover;
  }

let snapshot_json t v =
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("label", Json.Str t.label);
       ("done", Json.Int t.done_);
       ("total", Json.Int t.total);
       ("elapsed_s", Json.Float v.elapsed);
       ("trials_per_s", Json.Float (per_s v t.done_));
       ("ops", Json.Int t.ops);
       ("failures", Json.Int t.failures);
       ( "cover",
         Json.Obj
           [
             ("smc_calls", Json.Int (covered (Cover.smc_covered t.cover)));
             ("svc_calls", Json.Int (covered (Cover.svc_covered t.cover)));
             ("errors", Json.Int (List.length (Cover.errors_covered t.cover)));
             ("transitions", Json.Int (List.length (Cover.transitions t.cover)));
           ] );
     ]
    @ t.ext.fields v)

let render t v = Printf.sprintf "komodo %s: %s" t.label (t.ext.line v)

(* Caller holds the mutex. *)
let emit t ~final =
  let now = t.now () in
  if final || now -. t.last_emit >= t.interval || t.done_ >= t.total then begin
    t.last_emit <- now;
    t.emitted <- t.emitted + 1;
    let v = view t (now -. t.started) in
    if t.live then begin
      output_string stderr ("\r" ^ render t v);
      if final then output_string stderr "\n";
      flush stderr
    end;
    match t.jsonl with
    | None -> ()
    | Some oc ->
        (* Flushed per snapshot: the mirror can be tailed live, and a
           broken sink raises here, in the observer, where the pool
           surfaces it. *)
        output_string oc (Json.to_string (snapshot_json t v));
        output_char oc '\n';
        flush oc
  end

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let record t ext ?cover ~ops ~failed update =
  locked t (fun () ->
      t.ext <- ext;
      t.done_ <- t.done_ + 1;
      t.ops <- t.ops + ops;
      if failed then t.failures <- t.failures + 1;
      Option.iter (Cover.merge_into t.cover) cover;
      update ();
      emit t ~final:false)

let line t = locked t (fun () -> render t (view t (t.now () -. t.started)))
let finish t = locked t (fun () -> emit t ~final:true)
let snapshots t = locked t (fun () -> t.emitted)
