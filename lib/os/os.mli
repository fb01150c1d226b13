(** The untrusted OS (kernel-driver model).

    Once the system boots, a kernel driver issues SMCs to create and
    run enclaves (§8.1). This module is that driver: it owns the
    machine while in normal world, issues monitor calls through the
    real SMC trap path, and reads/writes insecure memory subject to the
    hardware's TrustZone filter — it *cannot* touch secure memory, and
    attempts to raise {!Protected} exactly as a TZASC would abort the
    access. *)

module Word = Komodo_machine.Word
module Monitor = Komodo_core.Monitor
module Errors = Komodo_core.Errors
module Uexec = Komodo_core.Uexec

type t = { mon : Monitor.t; alloc : Alloc.t; exec : Uexec.t }

(** Insecure physical regions the OS uses by convention. *)

val staging_base : Word.t
(** Where MapSecure initial contents are staged. *)

val document_base : Word.t
(** Large input buffers (e.g. the notary's documents). *)

val shared_base : Word.t
(** Enclave <-> OS shared pages. *)

val boot :
  ?seed:int ->
  ?npages:int ->
  ?optimised:bool ->
  ?sink:Komodo_telemetry.Sink.t ->
  ?spans:Komodo_telemetry.Span.recorder ->
  ?exec:Uexec.t ->
  unit ->
  t
(** Boot the platform (bootloader then normal world). The default
    executor has both native services (notary, verifier) registered;
    [sink] attaches a telemetry sink and [spans] a span recorder to
    the monitor (defaults: null — zero-cost). *)

exception Protected of Word.t
(** Normal-world software touched TrustZone-protected memory. *)

val write_word : t -> Word.t -> Word.t -> t
val read_word : t -> Word.t -> Word.t
val write_bytes : t -> Word.t -> string -> t
val read_bytes : t -> Word.t -> int -> string

val smc : t -> call:int -> args:Word.t list -> t * Errors.t * Word.t
(** Issue a raw monitor call via the SMC trap. *)

(** Typed wrappers for each Table 1 call. *)

val get_phys_pages : t -> t * Errors.t * int
val init_addrspace : t -> addrspace:int -> l1pt:int -> t * Errors.t
val init_thread : t -> addrspace:int -> thread:int -> entry:Word.t -> t * Errors.t
val init_l2ptable : t -> addrspace:int -> l2pt:int -> l1index:int -> t * Errors.t
val alloc_spare : t -> addrspace:int -> spare:int -> t * Errors.t

val map_secure :
  t -> addrspace:int -> data:int -> mapping:Komodo_core.Mapping.t -> content:Word.t -> t * Errors.t

val map_insecure :
  t -> addrspace:int -> mapping:Komodo_core.Mapping.t -> target:Word.t -> t * Errors.t

val finalise : t -> addrspace:int -> t * Errors.t
val enter : t -> thread:int -> args:Word.t * Word.t * Word.t -> t * Errors.t * Word.t
val resume : t -> thread:int -> t * Errors.t * Word.t
val stop : t -> addrspace:int -> t * Errors.t
val remove : t -> page:int -> t * Errors.t

val set_irq_budget : int option -> t -> t
(** Arm ([Some n]: interrupt after [n] user steps) or disarm the
    interrupt source for the next crossing. *)

val run_thread :
  ?budget:int -> t -> thread:int -> args:Word.t * Word.t * Word.t -> t * Errors.t * Word.t
(** Enter and keep resuming across interrupts until the thread exits,
    faults or has run for 2^24 modelled cycles (then [Interrupted]), so
    a thread that never exits still ends; [budget] arms the interrupt
    source before each crossing. *)

val cycles : t -> int

val crash_reboot : ?seed:int -> t -> t
(** Crash and restart the untrusted OS while enclaves stay live: the
    secure world persists; insecure working windows (staging, document,
    shared) come back as [seed]-deterministic junk and the driver's
    page-allocation bookkeeping is reset. *)

val teardown : t -> addrspace:int -> t * Errors.t
(** Stop the enclave, Remove every owned page, then Remove the
    address-space page itself; returns the first non-success error.
    The tail of the lifecycle the telemetry audit log checks. Flushes
    the monitor's telemetry sink (trace files are complete on disk). *)
