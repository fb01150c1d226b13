(** Linearisability checking of interleaved monitor executions.

    Checks the multi-core stepper's claim that validation under a
    complete lock footprint is a linearisation point: some total order
    of the retired calls, consistent with per-CPU program order, must
    replay through the sequential abstract spec ({!Aspec}) reproducing
    every observed (error, return) pair and the final abstract state.
    The validation order is tried first (the primary witness); a
    memoised DFS over program-order-consistent interleavings is the
    complete fallback, so only executions no sequential order can
    explain are reported as violations. *)

module Smp = Komodo_os.Smp

type verdict =
  | Linearisable of { order : (int * int) list; primary : bool }
      (** a witness order as [(cpu, index)] pairs; [primary] when the
          validation order itself was the witness *)
  | Violation of { reason : string }
  | Inconclusive of { reason : string }
      (** the fallback search exceeded its node budget — never observed
          in practice for campaign-sized op streams *)

val default_budget : int

val check :
  ?budget:int -> init:Astate.t -> final:Astate.t -> Smp.event list -> verdict
(** Check one run's retired calls. [events] must be in validation order
    (as {!Komodo_os.Smp.outcome.events} delivers them); [init] and
    [final] are the abstract states before and after the run
    ({!Abs.abs} of the monitor). Calls must avoid probe threads and
    non-zero MapSecure content words — true of everything the smp
    campaigns generate — so the spec replay is exact. *)
