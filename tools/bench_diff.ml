(* Summarize alternating benchmark pairs: two files of perfbench result
   lines (one JSON object per line, as `bash perfbench/run.sh` prints
   last), one for the parent commit and one for the change, where line i
   of each file is the i-th pair.  For every metric it prints the median
   and quartiles of each side, the change of the medians, and how many
   pairs the change won, as a markdown table.

     bench_diff BENCHMARK.json PARENT.jsonl CHANGE.jsonl

   Which way is better comes from the benchmark spec's [end_to_end] and
   [per_layer] entries ("better": "higher" or "lower"); a metric the spec
   does not name prints "-" for its wins.  A
   pair is won only when the change is strictly better.  Quartiles
   interpolate linearly between order statistics.  Exit 2 on unreadable
   input or files of different lengths. *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench_diff: " ^ m); exit 2) fmt

let read_json path text =
  match Json.of_string text with Ok v -> v | Error m -> die "%s: %s" path m

let read_file path =
  try In_channel.with_open_text path In_channel.input_all with Sys_error m -> die "%s" m

let lines path =
  read_file path
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

(* One result line: its [correct] flag, [failed] count and metrics, as
   (name, unit, value) in the line's order. *)
type run = { correct : bool; failed : int; metrics : (string * string * float) list }

let run_of path i line =
  let v = read_json path line in
  let bad what = die "%s: line %d: %s" path (i + 1) what in
  let metrics =
    match Json.member "metrics" v with
    | Some (Json.Obj fields) ->
        List.map
          (fun (name, m) ->
            match Json.member "value" m, Json.member "unit" m with
            | Some (Json.Number x), Some (Json.String u) -> (name, u, x)
            | _ -> bad ("metric " ^ name ^ " needs a numeric value and a unit"))
          fields
    | _ -> bad "no metrics object"
  in
  { correct = Json.member "correct" v = Some (Json.Bool true);
    failed =
      (match Json.member "failed" v with Some (Json.Number x) -> int_of_float x | _ -> 0);
    metrics }

let runs path = List.mapi (run_of path) (lines path)

(* metric name -> true when higher is better *)
let directions path =
  let v = read_json path (read_file path) in
  List.concat_map
    (fun section ->
      match Json.member section v with
      | Some (Json.List entries) ->
          List.filter_map
            (fun e ->
              match Json.member "name" e, Json.member "better" e with
              | Some (Json.String n), Some (Json.String "higher") -> Some (n, true)
              | Some (Json.String n), Some (Json.String "lower") -> Some (n, false)
              | _ -> None)
            entries
      | _ -> [])
    [ "end_to_end"; "per_layer" ]

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* [a] sorted and non-empty *)
let quantile a q =
  let pos = q *. float_of_int (Array.length a - 1) in
  let lo = int_of_float pos in
  let hi = min (Array.length a - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let summary = function
  | [] -> "-"
  | xs ->
      let a = sorted xs in
      Printf.sprintf "%.5g [%.5g, %.5g]" (quantile a 0.5) (quantile a 0.25)
        (quantile a 0.75)

let value r name =
  List.find_map (fun (n, _, x) -> if n = name then Some x else None) r.metrics

let () =
  let spec, parent_path, change_path =
    match Sys.argv with
    | [| _; s; p; c |] -> (s, p, c)
    | _ -> die "usage: bench_diff BENCHMARK.json PARENT.jsonl CHANGE.jsonl"
  in
  let better = directions spec in
  let parent = runs parent_path and change = runs change_path in
  let n = List.length parent in
  if n <> List.length change then
    die "%s has %d runs but %s has %d: the files must hold the same pairs" parent_path n
      change_path (List.length change);
  let count f rs = List.length (List.filter f rs) in
  let total f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
  Printf.printf
    "pairs: %d; correct: parent %d, change %d; failed operations: parent %d, change %d\n\n"
    n
    (count (fun r -> r.correct) parent)
    (count (fun r -> r.correct) change)
    (total (fun r -> r.failed) parent)
    (total (fun r -> r.failed) change);
  (* Metrics in order of first appearance, parent lines first. *)
  let names =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (name, u, _) ->
            if List.mem_assoc name acc then acc else (name, u) :: acc)
          acc r.metrics)
      [] (parent @ change)
    |> List.rev
  in
  print_endline
    "| metric | unit | parent median [q1, q3] | change median [q1, q3] | change | won |";
  print_endline "|---|---|---|---|---|---|";
  List.iter
    (fun (name, u) ->
      let side rs = List.filter_map (fun r -> value r name) rs in
      let ps = side parent and cs = side change in
      let delta =
        match ps, cs with
        | [], _ | _, [] -> "-"
        | _ ->
            let pm = quantile (sorted ps) 0.5 and cm = quantile (sorted cs) 0.5 in
            if pm = 0.0 then "-" else Printf.sprintf "%+.1f%%" (100.0 *. (cm -. pm) /. pm)
      in
      let won =
        match List.assoc_opt name better with
        | None -> "-"
        | Some higher ->
            let pairs =
              List.filter_map
                (fun (p, c) ->
                  match value p name, value c name with
                  | Some x, Some y -> Some (if higher then y > x else y < x)
                  | _ -> None)
                (List.combine parent change)
            in
            Printf.sprintf "%d/%d" (count Fun.id pairs) (List.length pairs)
      in
      Printf.printf "| %s | %s | %s | %s | %s | %s |\n" name u (summary ps) (summary cs)
        delta won)
    names
