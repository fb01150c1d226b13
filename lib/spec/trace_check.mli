(** Replay a telemetry trace (JSONL) against the abstract spec: the one
    checker behind both [komodo trace] and [komodo check --replay].

    The trace only records what crossed the monitor boundary, so the
    replay runs the spec with every thread opaque and every MapSecure
    content unobservable (measurements degrade to [Mopaque]). Within
    those limits every deterministic fact is checked: the error word of
    every SMC, the return value of every call outside Enter/Resume, the
    legality of every Enter/Resume outcome, and the page-type
    transitions of every deterministic call. Retypings observed during
    opaque enclave execution are applied as an oracle.

    With the spec as the state machine, the replay also enforces the
    orderliness rules Guardian checks for enclave call sequences: cycle
    stamps never regress; SVCs, user exceptions and retypings happen
    only inside an SMC, and the trace does not end inside one; every
    retyping starts from the page's current type; and every lifecycle
    milestone sits inside the call that makes it, on the same address
    space. An out-of-order call (Enter before Finalise, anything after
    Remove, Remove before Stop) is rejected by its error word, which the
    spec computes from the address space's state. *)

type report = {
  events : int;  (** events consumed *)
  calls : int;  (** SMC calls replayed through the spec *)
  violations : (int * string) list;  (** 0-based event index, description *)
}

val replay : npages:int -> Komodo_telemetry.Event.stamped list -> report
(** [report.violations = []]: the trace refines the spec and is orderly. *)

val render : report -> string list
(** A summary line, then ["trace refines the spec"] or the violations. *)
