type step =
  | Interchange of int * int
  | Reorder of int list
  | Split of int * int
  | Tile of int * int
  | Fuse of int
  | Unroll of int * int
  | Vectorize of int
  | Parallelize of int
  | Group of int
  | Bottleneck of string * int
  | Depthwise

let to_string = function
  | Interchange (i, j) -> Printf.sprintf "interchange@%d,%d" i j
  | Reorder p -> "reorder@" ^ String.concat "," (List.map string_of_int p)
  | Split (i, f) -> Printf.sprintf "split@%d:%d" i f
  | Tile (i, f) -> Printf.sprintf "tile@%d:%d" i f
  | Fuse i -> Printf.sprintf "fuse@%d" i
  | Unroll (i, f) -> Printf.sprintf "unroll@%d:%d" i f
  | Vectorize i -> Printf.sprintf "vectorize@%d" i
  | Parallelize i -> Printf.sprintf "parallelize@%d" i
  | Group f -> Printf.sprintf "group@%d" f
  | Bottleneck (it, f) -> Printf.sprintf "bottleneck@%s:%d" it f
  | Depthwise -> "depthwise"

let plan_to_string steps = String.concat ";" (List.map to_string steps)

let parse_step tok =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let int_of s =
    match int_of_string_opt (String.trim s) with
    | Some i -> Ok i
    | None -> fail "'%s' is not an integer" s
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let name, args =
    match String.index_opt tok '@' with
    | Some i ->
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )
    | None -> (tok, "")
  in
  let pos_factor () =
    match String.split_on_char ':' args with
    | [ p; f ] ->
        let* p = int_of p in
        let* f = int_of f in
        Ok (p, f)
    | _ -> fail "step %s: expected POS:FACTOR, got '%s'" name args
  in
  let one_int () =
    match args with "" -> fail "step %s: missing argument" name | s -> int_of s
  in
  match String.trim name with
  | "interchange" -> (
      match String.split_on_char ',' args with
      | [ i; j ] ->
          let* i = int_of i in
          let* j = int_of j in
          Ok (Interchange (i, j))
      | _ -> fail "interchange: expected I,J, got '%s'" args)
  | "reorder" ->
      let rec ints acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest ->
            let* i = int_of s in
            ints (i :: acc) rest
      in
      let* p = ints [] (String.split_on_char ',' args) in
      Ok (Reorder p)
  | "split" ->
      let* p, f = pos_factor () in
      Ok (Split (p, f))
  | "tile" ->
      let* p, f = pos_factor () in
      Ok (Tile (p, f))
  | "fuse" ->
      let* p = one_int () in
      Ok (Fuse p)
  | "unroll" ->
      let* p, f = pos_factor () in
      Ok (Unroll (p, f))
  | "vectorize" ->
      let* p = one_int () in
      Ok (Vectorize p)
  | "parallelize" ->
      let* p = one_int () in
      Ok (Parallelize p)
  | "group" ->
      let* f = one_int () in
      Ok (Group f)
  | "bottleneck" -> (
      match String.split_on_char ':' args with
      | [ it; f ] ->
          let* f = int_of f in
          Ok (Bottleneck (String.trim it, f))
      | _ -> fail "bottleneck: expected ITER:FACTOR, got '%s'" args)
  | "depthwise" -> Ok Depthwise
  | other -> fail "unknown plan step '%s'" other

let of_string s =
  let toks =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  if toks = [] then Error "empty plan"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | t :: rest -> (
          match parse_step t with Ok st -> go (st :: acc) rest | Error _ as e -> e)
    in
    go [] toks

let apply (t : Poly.t) = function
  | Interchange (i, j) -> Poly.interchange t i j
  | Reorder p -> Poly.reorder t (Array.of_list p)
  (* Factor-1 split/tile is the identity in the plan language (the typing
     judgment flags it as a no-op); [Poly.split] itself insists on
     factor > 1, so only the position is checked here. *)
  | Split (i, 1) | Tile (i, 1) ->
      if i < 0 || i >= Poly.loop_count t then
        raise (Poly.Illegal (Printf.sprintf "split: position %d out of range" i));
      t
  | Split (i, f) -> Poly.split t ~pos:i ~factor:f
  | Tile (i, f) -> Poly.tile t ~pos:i ~factor:f
  | Fuse i -> Poly.fuse t ~pos:i
  | Unroll (i, f) -> Poly.unroll t ~pos:i ~factor:f
  | Vectorize i -> Poly.vectorize t ~pos:i
  | Parallelize i -> Poly.parallelize t ~pos:i
  | Group f -> Poly.group t ~co:"co" ~ci:"ci" ~factor:f
  | Bottleneck (it, f) -> Poly.bottleneck t ~iter:it ~factor:f
  | Depthwise -> Poly.depthwise t ~co:"co" ~ci:"ci"
