(* The JSONL framing of every trace (see the interface). *)

type tag = Kind of string | Schema of string

let ( let* ) = Result.bind
let req what = function Some v -> Ok v | None -> Error ("missing/ill-typed " ^ what)
let field name f j = Result.bind (req name (Json.member name j)) f
let int_field name j = req name (Option.bind (Json.member name j) Json.to_int_opt)
let str_field name j = req name (Option.bind (Json.member name j) Json.to_string_opt)

let in_range name ~lo ~hi n =
  if n < lo || n > hi then Error (Printf.sprintf "%s %d outside %d..%d" name n lo hi)
  else Ok n

let range_field name ~lo ~hi j = Result.bind (int_field name j) (in_range name ~lo ~hi)

let all f xs =
  let step acc x = let* acc = acc in let* y = f x in Ok (y :: acc) in
  Result.map List.rev (List.fold_left step (Ok []) xs)

let int_list name j =
  let* items = req name (Option.bind (Json.member name j) Json.to_list_opt) in
  all (fun a -> req (name ^ " element") (Json.to_int_opt a)) items

let ints xs = Json.List (List.map (fun a -> Json.Int a) xs)
let name_json name = function None -> Json.Null | Some b -> Json.Str (name b)

let name_field key of_string j =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Str s) when of_string s <> None -> Ok (of_string s)
  | Some v -> Error (Printf.sprintf "unknown %s %s" key (Json.to_string v))

let tag_field = function
  | Kind kind -> (Printf.sprintf "komodo_%s_trace" kind, Json.Int 1)
  | Schema s -> ("schema", Json.Str s)

let has_tag tag j =
  let key, v = tag_field tag in
  Option.equal Json.equal (Json.member key j) (Some v)

let tagged tag line = match Json.parse line with Ok j -> has_tag tag j | Error _ -> false

let lines tag header op_json ops =
  Json.to_string (Json.Obj (tag_field tag :: header))
  :: List.map (fun o -> Json.to_string (op_json o)) ops

(* The non-blank lines, each with its 1-based line number. *)
let numbered lines =
  List.mapi (fun i l -> (i + 1, l)) lines |> List.filter (fun (_, l) -> String.trim l <> "")

let decode f (n, line) =
  Result.map_error (Printf.sprintf "line %d: %s" n) (Result.bind (Json.parse line) f)

let parse_body op lines = all (decode op) (numbered lines)

let parse tag ~header ~op lines =
  let name = match tag with Kind k -> "komodo " ^ k | Schema s -> s in
  let header j = if has_tag tag j then header j else Error ("not a " ^ name ^ " trace") in
  match numbered lines with
  | [] -> Error "empty trace"
  | first :: rest ->
      let* h = decode header first in
      let* ops = all (decode (op h)) rest in
      Ok (h, ops)
