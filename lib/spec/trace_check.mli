(** Replay a PR-1 telemetry trace (JSONL) against the abstract spec.

    The trace only records what crossed the monitor boundary — calls,
    arguments, error words, return values, and page retypings — so the
    replay runs the spec with every thread opaque and every MapSecure
    content unobservable (measurements degrade to [Mopaque]). Within
    those limits every deterministic fact is checked: the error word of
    every SMC, the return value of every call outside Enter/Resume,
    the legality of every Enter/Resume outcome, and the page-type
    transitions of every deterministic call. Retypings observed during
    opaque enclave execution are applied as an oracle (slot-level
    page-table state is not recoverable from a trace). *)

type report = {
  events : int;  (** events consumed *)
  calls : int;  (** SMC calls replayed through the spec *)
  violations : (int * string) list;  (** line-ish event index, description *)
}

val replay : npages:int -> Komodo_telemetry.Event.stamped list -> report
(** Replay parsed events ({!Komodo_telemetry.Event.parse_trace});
    check [report.violations] for semantic errors. *)
