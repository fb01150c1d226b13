(* Streaming campaign observability: a mutex-protected reporter fed
   from Pool's [on_trial] hook (any domain), emitting periodic
   snapshots to a live stderr line and/or a JSONL mirror.

   Strictly an observer: it never touches trial content or the campaign
   report, so enabling it cannot perturb the byte-identical `-j 1` /
   `-j N` contract. The clock is injected — the library takes no unix
   dependency, and tests drive it with a fake clock for deterministic
   snapshot streams. All wallclock-derived fields (elapsed, trials/s)
   live only in the snapshots, never in campaign output.

   The reporter keeps only what every campaign kind fills (units done,
   ops, failures); a kind's own counters are its running merge, held by
   the {!observer} it folds its units through. *)

module Json = Komodo_telemetry.Json

let schema = "komodo-progress/1"

type view = {
  done_ : int;
  total : int;
  elapsed : float;
  ops : int;
  failures : int;
}

type 'acc render = {
  fields : view -> 'acc -> (string * Json.t) list;
  line : view -> 'acc -> string;
}

let per_s v n = if v.elapsed > 0. then float_of_int n /. v.elapsed else 0.

let trials_line v =
  Printf.sprintf "%d/%d trials, %.1f trials/s" v.done_ v.total (per_s v v.done_)

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
  mutable ops : int;  (** read off the running merge, never summed here *)
  mutable failures : int;  (** divergences or violations seen *)
  mutable ext : unit render;  (** the running merge's rendering *)
  mutable last_emit : float;
  mutable emitted : int;
}

let plain =
  {
    fields = (fun _ () -> []);
    line = (fun v () -> Printf.sprintf "%s, %d ops" (trials_line v) v.ops);
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
    ext = plain;
    last_emit = neg_infinity;
    emitted = 0;
  }

let view t elapsed =
  {
    done_ = t.done_;
    total = t.total;
    elapsed;
    ops = t.ops;
    failures = t.failures;
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
     ]
    @ t.ext.fields v ())

let render t v = Printf.sprintf "komodo %s: %s" t.label (t.ext.line v ())

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

let observer t ?(ops = fun _ -> 0) ?(failed = fun _ -> false) ~init ~merge r =
  let acc = ref init in
  let ext = { fields = (fun v () -> r.fields v !acc); line = (fun v () -> r.line v !acc) } in
  fun item ->
    locked t (fun () ->
        acc := merge !acc item;
        t.ext <- ext;
        t.done_ <- t.done_ + 1;
        t.ops <- ops !acc;
        if failed item then t.failures <- t.failures + 1;
        emit t ~final:false)

let line t = locked t (fun () -> render t (view t (t.now () -. t.started)))
let finish t = locked t (fun () -> emit t ~final:true)
let snapshots t = locked t (fun () -> t.emitted)
