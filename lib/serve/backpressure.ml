(* Bounded admission control for the serving engine.

   Arrivals that find every enclave slot busy wait in a FIFO queue of
   fixed capacity. When the queue is full the newest arrival is shed
   (load shedding at the door, like a listen backlog); with a deadline
   policy, sessions that waited past their deadline are shed at
   dispatch time instead of being served late (the "better never than
   late" discipline of SLO-bound serving systems).

   The queue is plain deterministic data over model-cycle timestamps —
   no wallclock, no scheduling — so queue dynamics replay identically
   at any `-j`. Saturation accounting (peak depth, full-queue arrivals,
   shed counts) feeds the serve report. *)

type policy =
  | Drop  (** shed only on a full queue *)
  | Deadline of int
      (** additionally shed any session whose queue wait exceeds this
          many model cycles, measured at dispatch *)

type 'a t = {
  capacity : int;
  policy : policy;
  q : (int * 'a) Queue.t;  (** (arrival cycle, session) *)
  mutable depth : int;
  mutable max_depth : int;
  mutable enqueued : int;
  mutable shed_full : int;
  mutable shed_deadline : int;
  mutable full_events : int;  (** arrivals that found the queue full *)
}

let create ~capacity ~policy =
  if capacity < 0 then invalid_arg "Backpressure.create: negative capacity";
  {
    capacity;
    policy;
    q = Queue.create ();
    depth = 0;
    max_depth = 0;
    enqueued = 0;
    shed_full = 0;
    shed_deadline = 0;
    full_events = 0;
  }

let depth t = t.depth
let max_depth t = t.max_depth
let enqueued t = t.enqueued
let shed_full t = t.shed_full
let shed_deadline t = t.shed_deadline
let shed t = t.shed_full + t.shed_deadline
let full_events t = t.full_events

(** Offer a session that cannot be served immediately. [`Queued] if it
    joined the queue, [`Shed] if the queue was full. *)
let offer t ~now session =
  if t.depth >= t.capacity then begin
    t.full_events <- t.full_events + 1;
    t.shed_full <- t.shed_full + 1;
    `Shed
  end
  else begin
    Queue.push (now, session) t.q;
    t.depth <- t.depth + 1;
    t.enqueued <- t.enqueued + 1;
    if t.depth > t.max_depth then t.max_depth <- t.depth;
    `Queued
  end

(** Take the next session to dispatch at cycle [now], shedding expired
    heads under a deadline policy. Each shed head is reported through
    [expired] (closed-loop callers reissue the client; open-loop callers
    pass [ignore]). Returns [(arrival, session)] of the first survivor,
    or [None] when the queue drains. *)
let rec take t ~now ~expired =
  match Queue.take_opt t.q with
  | None -> None
  | Some (arrival, session) -> (
      t.depth <- t.depth - 1;
      match t.policy with
      | Deadline d when now - arrival > d ->
          t.shed_deadline <- t.shed_deadline + 1;
          expired session;
          take t ~now ~expired
      | Deadline _ | Drop -> Some (arrival, session))
