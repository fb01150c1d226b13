(** Bounded admission queue with shed/deadline policy.

    Sessions that find every enclave slot busy wait in a FIFO queue of
    fixed capacity over model-cycle timestamps. A full queue sheds the
    newest arrival; a {!Deadline} policy additionally sheds sessions
    whose wait exceeded the deadline, measured when a slot frees up.
    Purely deterministic data — queue dynamics replay identically at
    any [-j]. *)

type policy =
  | Drop  (** shed only on a full queue *)
  | Deadline of int  (** also shed sessions older than this many cycles *)

type 'a t

val create : capacity:int -> policy:policy -> 'a t
(** @raise Invalid_argument on a negative capacity ([capacity = 0]
    sheds every arrival that cannot be served immediately). *)

val offer : 'a t -> now:int -> 'a -> [ `Queued | `Shed ]
(** Offer a session that cannot be dispatched immediately. *)

val take : 'a t -> now:int -> expired:('a -> unit) -> (int * 'a) option
(** Next [(arrival cycle, session)] to dispatch at [now], after
    shedding expired heads under a deadline policy. Every shed head is
    reported through [expired] so closed-loop callers can reissue the
    client; open-loop callers pass [ignore]. *)

(** Saturation accounting. *)

val depth : 'a t -> int
val max_depth : 'a t -> int
val enqueued : 'a t -> int

val shed_full : 'a t -> int
(** Sessions shed because the queue was full on arrival. *)

val shed_deadline : 'a t -> int
(** Sessions shed because their queue wait exceeded the deadline. *)

val shed : 'a t -> int
(** [shed_full + shed_deadline]. *)

val full_events : 'a t -> int
(** Arrivals that found the queue at capacity. *)
