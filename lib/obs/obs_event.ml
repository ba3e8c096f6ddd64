type kind = Span_begin | Span_end | Note

type t = {
  e_kind : kind;
  e_name : string;
  e_depth : int;
  e_t : float;
  e_dur_s : float option;
  e_detail : string option;
}

let span_begin ~name ~depth ~t =
  { e_kind = Span_begin; e_name = name; e_depth = depth; e_t = t; e_dur_s = None;
    e_detail = None }

let span_end ~name ~depth ~t ~dur_s =
  { e_kind = Span_end; e_name = name; e_depth = depth; e_t = t;
    e_dur_s = Some dur_s; e_detail = None }

let note ?detail ~name ~depth ~t () =
  { e_kind = Note; e_name = name; e_depth = depth; e_t = t; e_dur_s = None;
    e_detail = detail }

let kind_name = function
  | Span_begin -> "span_begin"
  | Span_end -> "span_end"
  | Note -> "note"

let kind_of_name = function
  | "span_begin" -> Some Span_begin
  | "span_end" -> Some Span_end
  | "note" -> Some Note
  | _ -> None

let strip_times e =
  { e with e_t = 0.0; e_dur_s = (match e.e_dur_s with None -> None | Some _ -> Some 0.0) }

(* --- JSON ------------------------------------------------------------------ *)

let json_string s = Json.to_string (Json.String s)

let to_json e =
  let opt key f = function Some x -> [ (key, f x) ] | None -> [] in
  Json.to_string
    (Json.Obj
       ([ ("kind", Json.String (kind_name e.e_kind));
          ("name", Json.String e.e_name);
          ("depth", Json.Number (float_of_int e.e_depth));
          ("t", Json.Number e.e_t) ]
       @ opt "dur_s" (fun d -> Json.Number d) e.e_dur_s
       @ opt "detail" (fun d -> Json.String d) e.e_detail))

let of_json line =
  match Json.of_string line with
  | Error _ -> None
  | Ok v -> (
      let str k = match Json.member k v with Some (Json.String s) -> Some s | _ -> None in
      let num k = match Json.member k v with Some (Json.Number x) -> Some x | _ -> None in
      match (Option.bind (str "kind") kind_of_name, str "name", num "depth", num "t") with
      | Some e_kind, Some e_name, Some depth, Some e_t ->
          Some
            { e_kind;
              e_name;
              e_depth = int_of_float depth;
              e_t;
              e_dur_s = num "dur_s";
              e_detail = str "detail" }
      | _ -> None)

let pp ppf e =
  let indent = String.make (2 * e.e_depth) ' ' in
  match e.e_kind with
  | Span_begin -> Format.fprintf ppf "%s> %s" indent e.e_name
  | Span_end ->
      Format.fprintf ppf "%s< %s  (%.6fs)" indent e.e_name
        (match e.e_dur_s with Some d -> d | None -> 0.0)
  | Note ->
      Format.fprintf ppf "%s* %s%s" indent e.e_name
        (match e.e_detail with Some d -> ": " ^ d | None -> "")
