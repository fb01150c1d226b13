(** Static platform (SoC) configuration.

    The boot-time facts the monitor relies on: how many secure pages
    exist, which physical addresses the TZASC-style filter (§3.2)
    isolates from the normal world, and whether physical memory attacks
    are in scope for the threat model (§3.1). *)

module Word = Komodo_machine.Word

type t = {
  npages : int;  (** secure pages available to the monitor *)
  physical_attacks_in_scope : bool;
      (** threat-model variant: when set, only the isolated region is
          trusted against bus snooping / cold boot *)
}

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val show : t -> string

val default : t

val max_pages : int
(** 4096: the secure region is bounded at 16 MB. *)

val make : ?npages:int -> ?physical_attacks_in_scope:bool -> unit -> t
(** @raise Invalid_argument outside 4..{!max_pages} pages. *)

val normal_world_accessible : t -> Word.t -> bool
(** The hardware memory filter: secure pages and the monitor image are
    blocked; OS RAM is fair game. *)

val is_valid_insecure : t -> Word.t -> bool
(** Valid insecure memory for OS/enclave sharing — excluding the
    monitor's own image, the subtlety of §9.1. *)

val page_base : t -> int -> Word.t
val page_of_pa : t -> Word.t -> int option
val valid_page : t -> int -> bool
