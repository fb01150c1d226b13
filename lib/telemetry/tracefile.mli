(** The one JSONL framing for every trace the tool reads or writes: a
    header line led by the format's {!tag}, then one JSON object per op
    (a telemetry trace has no header: one event per line). Blank lines
    are skipped, the first error wins and names its 1-based line, so a
    malformed trace is a typed error, never an exception. *)

(** [Kind k] headers lead with ["komodo_<k>_trace": 1] (fault, vault,
    smp); [Schema s] headers with ["schema": s] (explore). *)
type tag = Kind of string | Schema of string

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

(** {2 Field decoders, shared by every format's codecs} *)

val req : string -> 'a option -> ('a, string) result
val field : string -> (Json.t -> ('a, string) result) -> Json.t -> ('a, string) result
val int_field : string -> Json.t -> (int, string) result
val str_field : string -> Json.t -> (string, string) result

val in_range : string -> lo:int -> hi:int -> int -> (int, string) result
(** [Ok n] within [lo..hi], else an error naming [name] and the bound. *)

val range_field : string -> lo:int -> hi:int -> Json.t -> (int, string) result
(** An integer field within [lo..hi]: headers validate their geometry
    here, before a world is booted from it. *)

val int_list : string -> Json.t -> (int list, string) result
val all : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
val ints : int list -> Json.t

val name_json : ('a -> string) -> 'a option -> Json.t
(** An optional named choice (a bug, a mutation); [null] when absent. *)

val name_field : string -> (string -> 'a option) -> Json.t -> ('a option, string) result

(** {2 Framing} *)

val tagged : tag -> string -> bool
val lines : tag -> (string * Json.t) list -> ('op -> Json.t) -> 'op list -> string list

val parse :
  tag ->
  header:(Json.t -> ('h, string) result) ->
  op:('h -> Json.t -> ('op, string) result) ->
  string list ->
  ('h * 'op list, string) result
(** [op] sees the decoded header, so ops are validated against it. *)

val parse_body : (Json.t -> ('a, string) result) -> string list -> ('a list, string) result
(** Headerless JSONL: every non-blank line is one item. *)
