(** Deterministic client workload generation.

    All randomness the serving engine consumes — inter-arrival gaps,
    think times, session nonces — comes from a splitmix64 stream
    derived from the shard seed, making each shard a pure function of
    (root seed, shard index): the determinism foundation for
    byte-identical `-j 1` / `-j N` serve reports. Time is model
    cycles throughout. *)

type rng

val rng : seed:int -> rng

val uniform : rng -> float
(** Uniform in [0, 1), exact in 53 bits. *)

val int_below : rng -> int -> int
(** Uniform in [0, n). @raise Invalid_argument if [n <= 0]. *)

val nonce : rng -> string
(** A fresh 32-byte session nonce. *)

type arrival = Poisson | Uniform | Burst

val arrival_name : arrival -> string

type mode =
  | Open of arrival  (** open loop: arrivals ignore completions *)
  | Closed of { clients : int; think : int }
      (** closed loop: each client reissues [think] mean cycles after
          its previous session completes *)

val gaps : arrival -> mean_gap:int -> rng -> unit -> int
(** An open-loop gap generator with long-run mean [mean_gap] model
    cycles between arrivals; every gap is at least one cycle. [Burst]
    emits bursts of 16 near-back-to-back arrivals separated by long
    idle gaps with the same overall mean. *)

val think_gap : rng -> mean:int -> int
(** A closed-loop think-time draw: uniform in [0.5, 1.5) x mean. *)
