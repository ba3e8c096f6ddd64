type case = {
  cs_index : int;
  cs_plan : string;
  cs_deps : string;
  cs_static : Direction.verdict;
  cs_oracle : bool;
}

type report = {
  rs_total : int;
  rs_agree_legal : int;
  rs_agree_illegal : int;
  rs_unknown : int;
  rs_disagreements : case list;
  rs_static_time : float;
  rs_oracle_time : float;
}

let unknown_rate r =
  if r.rs_total = 0 then 0.0 else float_of_int r.rs_unknown /. float_of_int r.rs_total

let passed ?(max_unknown_rate = 0.2) r =
  r.rs_disagreements = [] && unknown_rate r < max_unknown_rate

(* Divisor-friendly extents keep most random factors applicable, so the
   corpus exercises deep transformation chains rather than dying on the
   first indivisible split. *)
let random_nest rng =
  let ch = [| 4; 8; 16 |] and sp = [| 4; 6; 8 |] and k = [| 1; 3 |] in
  Loop_nest.conv_nest_of_dims ~co:(Rng.choice rng ch) ~ci:(Rng.choice rng ch)
    ~oh:(Rng.choice rng sp) ~ow:(Rng.choice rng sp) ~k:(Rng.choice rng k) ~stride:1
    ~groups:1
  |> fun n -> { n with Loop_nest.nc_ow = n.Loop_nest.nc_oh }

let divisors n = List.filter (fun d -> n mod d = 0) [ 2; 3; 4; 8 ]

(* One random transformation applicable to the current schedule, [None]
   when the dice land on something inapplicable (caller just retries). *)
let random_step rng (s : Poly.t) =
  let n = Poly.loop_count s in
  let pos () = Rng.int rng n in
  match Rng.int rng 8 with
  | 0 ->
      let i = pos () and j = pos () in
      if i = j then None else Some (Plan_lint.Interchange (i, j))
  | 1 -> Some (Plan_lint.Reorder (Array.to_list (Rng.permutation rng n)))
  | 2 | 3 -> (
      let p = pos () in
      let e = Poly.loop_extent (List.nth s.Poly.loops p) in
      match divisors e with
      | [] -> None
      | ds ->
          let f = Rng.choice_list rng ds in
          Some (if Rng.bool rng then Plan_lint.Split (p, f) else Plan_lint.Tile (p, f)))
  | 4 ->
      let p = pos () in
      Some (Plan_lint.Unroll (p, Rng.choice rng [| 2; 4 |]))
  | 5 -> (
      let eco = Poly.iter_extent s "co" and eci = Poly.iter_extent s "ci" in
      match List.filter (fun d -> eci mod d = 0) (divisors eco) with
      | [] -> None
      | ds -> Some (Plan_lint.Group (Rng.choice_list rng ds)))
  | 6 -> (
      let it = Rng.choice rng [| "co"; "ci"; "oh" |] in
      match divisors (Poly.iter_extent s it) with
      | [] -> None
      | ds -> Some (Plan_lint.Bottleneck (it, Rng.choice_list rng ds)))
  | _ ->
      if Poly.iter_extent s "co" = Poly.iter_extent s "ci" then
        Some Plan_lint.Depthwise
      else None

let random_plan rng s =
  let steps = 1 + Rng.int rng 4 in
  let rec build s acc tries remaining =
    if remaining = 0 || tries > 20 then (s, List.rev acc)
    else
      match random_step rng s with
      | None -> build s acc (tries + 1) remaining
      | Some step -> (
          match Plan_lint.apply s step with
          | s' -> build s' (step :: acc) tries (remaining - 1)
          | exception Poly.Illegal _ -> build s acc (tries + 1) remaining)
  in
  build s [] 0 steps

(* Dependence sets mix the convolution's real accumulation constraints
   with adversarial distances (stencil-like mixed signs, occasional zero
   vectors) to probe both verdict polarities. *)
let random_deps rng =
  let reductions =
    List.filter (fun _ -> Rng.bool rng) [ "ci"; "kh"; "kw" ]
    |> Poly_legality.reduction_dependences
  in
  let adversarial =
    if Rng.int rng 3 = 0 then
      let iters = Rng.sample rng (1 + Rng.int rng 2) [| "co"; "ci"; "oh"; "ow" |] in
      [ { Poly_legality.distance =
            Array.to_list (Array.map (fun it -> (it, Rng.int rng 5 - 2)) iters);
          dep_label = "fuzz" } ]
    else []
  in
  match reductions @ adversarial with
  | [] -> Poly_legality.reduction_dependences [ "ci" ]
  | deps -> deps

let run ?max_points ~seed ~n () =
  let rng = Rng.create seed in
  let static_time = ref 0.0 and oracle_time = ref 0.0 in
  let agree_legal = ref 0 and agree_illegal = ref 0 and unknown = ref 0 in
  let disagreements = ref [] in
  for i = 0 to n - 1 do
    let case_rng = Rng.split rng in
    let nest = random_nest case_rng in
    let base = Loop_nest.baseline_schedule nest in
    let s, steps = random_plan case_rng base in
    let deps = random_deps case_rng in
    let t0 = Sys.time () in
    let static = Direction.check s deps in
    let t1 = Sys.time () in
    let oracle =
      match max_points with
      | Some m -> Poly_legality.check ~max_points:m s deps
      | None -> Poly_legality.check s deps
    in
    let t2 = Sys.time () in
    static_time := !static_time +. (t1 -. t0);
    oracle_time := !oracle_time +. (t2 -. t1);
    (match Direction.to_bool static with
    | None -> incr unknown
    | Some b when b = oracle -> if b then incr agree_legal else incr agree_illegal
    | Some _ ->
        let deps_str =
          String.concat " + "
            (List.map
               (fun (d : Poly_legality.dependence) ->
                 d.Poly_legality.dep_label ^ ":"
                 ^ String.concat ","
                     (List.map
                        (fun (it, v) -> Printf.sprintf "%s%+d" it v)
                        d.Poly_legality.distance))
               deps)
        in
        disagreements :=
          { cs_index = i;
            cs_plan = Plan_lint.plan_to_string steps;
            cs_deps = deps_str;
            cs_static = static;
            cs_oracle = oracle }
          :: !disagreements)
  done;
  { rs_total = n;
    rs_agree_legal = !agree_legal;
    rs_agree_illegal = !agree_illegal;
    rs_unknown = !unknown;
    rs_disagreements = List.rev !disagreements;
    rs_static_time = !static_time;
    rs_oracle_time = !oracle_time }

(* --- typed-vs-Poly differential fuzzer --------------------------------- *)

type typed_case = {
  tp_index : int;
  tp_plan : string;
  tp_kind : string;
  tp_detail : string;
}

type typed_report = {
  tt_total : int;
  tt_typed_lint_clean : int;
  tt_env_agree : int;
  tt_legal_agree : int;
  tt_unknown : int;
  tt_survivors_typed : int;
  tt_dirty_rejected : int;
  tt_disagreements : typed_case list;
}

let typed_unknown_rate r =
  if r.tt_total = 0 then 0.0 else float_of_int r.tt_unknown /. float_of_int r.tt_total

let typed_passed ?(max_unknown_rate = 0.2) r =
  r.tt_disagreements = [] && typed_unknown_rate r < max_unknown_rate

(* Each case checks the typing judgment against the real transformations
   in both directions: a plan emitted by the typed generator must apply
   through [Poly], predict the applied schedule's abstraction
   digit-for-digit and agree with the sampling oracle whenever [T-Legal]
   is decisive; a rejection-sampled plan that [Poly] applies may draw
   warnings from the judgment but no error, and its abstract state must
   still track the applied schedule. *)
let run_typed ?max_points ~seed ~n () =
  let rng = Rng.create seed in
  let clean = ref 0 and env_agree = ref 0 and legal_agree = ref 0 in
  let unknown = ref 0 and survivors = ref 0 and dirty = ref 0 in
  let disagreements = ref [] in
  let fail i steps kind fmt =
    Printf.ksprintf
      (fun detail ->
        disagreements :=
          { tp_index = i;
            tp_plan = Plan_lint.plan_to_string steps;
            tp_kind = kind;
            tp_detail = detail }
          :: !disagreements)
      fmt
  in
  let oracle s deps =
    match max_points with
    | Some m -> Poly_legality.check ~max_points:m s deps
    | None -> Poly_legality.check s deps
  in
  for i = 0 to n - 1 do
    let case_rng = Rng.split rng in
    let nest = random_nest case_rng in
    let base = Loop_nest.baseline_schedule nest in
    let env0 = Plan_types.env_of_schedule base in
    (* Direction 1: well-typed by construction ⇒ applies through [Poly],
       abstracts the applied schedule exactly, and [T-Legal] agrees with
       the oracle. *)
    let steps, env_t = Plan_types.sample_plan case_rng ~max_len:4 env0 in
    (match List.fold_left Plan_lint.apply base steps with
    | exception Poly.Illegal msg ->
        fail i steps "typed-but-illegal" "Poly rejected a well-typed plan: %s" msg
    | s -> (
        incr clean;
        if Plan_types.equal (Plan_types.env_of_schedule s) env_t then incr env_agree
        else fail i steps "env-mismatch" "predicted env diverges from the applied schedule";
        let deps = random_deps case_rng in
        let legal = oracle s deps in
        match Plan_types.check ~deps env0 steps with
        | Ok _ ->
            if legal then incr legal_agree
            else fail i steps "legal-but-oracle-illegal" "T-Legal accepted an oracle-illegal plan"
        | Error ({ Diagnostic.d_code = "legality-unknown"; _ } :: _) -> incr unknown
        | Error ({ Diagnostic.d_code = "illegal-dependence"; _ } :: _) ->
            if legal then
              fail i steps "illegal-but-oracle-legal" "T-Legal rejected an oracle-legal plan"
            else incr legal_agree
        | Error _ -> fail i steps "typed-plan-rejected" "the generator emitted an ill-typed plan"));
    (* Direction 2: [Poly] applied every step of the rejection-sampled
       plan, so the judgment may only warn, and warning-only steps leave
       the abstract state unchanged. *)
    let s_r, steps_r = random_plan case_rng base in
    let rec judge env warned = function
      | [] -> Ok (env, warned)
      | step :: rest -> (
          match Plan_types.infer env step with
          | Ok env' -> judge env' warned rest
          | Error ds when Diagnostic.errors ds = [] -> judge env true rest
          | Error ds -> Error ds)
    in
    match judge env0 false steps_r with
    | Error ds ->
        fail i steps_r "applied-but-ill-typed" "Poly applied a step the judgment rejects: %s"
          (String.concat "; " (List.map (fun d -> d.Diagnostic.d_msg) (Diagnostic.errors ds)))
    | Ok (env, warned) ->
        if not (Plan_types.equal (Plan_types.env_of_schedule s_r) env) then
          fail i steps_r "env-mismatch" "survivor env diverges from the applied schedule"
        else if warned then incr dirty
        else incr survivors
  done;
  { tt_total = n;
    tt_typed_lint_clean = !clean;
    tt_env_agree = !env_agree;
    tt_legal_agree = !legal_agree;
    tt_unknown = !unknown;
    tt_survivors_typed = !survivors;
    tt_dirty_rejected = !dirty;
    tt_disagreements = List.rev !disagreements }

let pp_typed_report ppf r =
  Format.fprintf ppf
    "@[<v>typecheck-fuzz: %d cases · %d typed-applied · %d env-agree · %d \
     legal-agree · %d unknown (%.1f%%) · %d survivors-typed · %d warn-rejected \
     · %d disagreements@]"
    r.tt_total r.tt_typed_lint_clean r.tt_env_agree r.tt_legal_agree r.tt_unknown
    (100.0 *. typed_unknown_rate r)
    r.tt_survivors_typed r.tt_dirty_rejected
    (List.length r.tt_disagreements);
  List.iter
    (fun c ->
      Format.fprintf ppf "@,DISAGREEMENT #%d [%s] plan=[%s]: %s" c.tp_index c.tp_kind
        c.tp_plan c.tp_detail)
    r.tt_disagreements

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>sanitizer: %d plans · %d agree-legal · %d agree-illegal · %d unknown \
     (%.1f%%) · %d disagreements@,static %.3fs vs oracle %.3fs (%.1fx)@]"
    r.rs_total r.rs_agree_legal r.rs_agree_illegal r.rs_unknown
    (100.0 *. unknown_rate r)
    (List.length r.rs_disagreements)
    r.rs_static_time r.rs_oracle_time
    (if r.rs_static_time > 0.0 then r.rs_oracle_time /. r.rs_static_time else 0.0);
  List.iter
    (fun c ->
      Format.fprintf ppf "@,DISAGREEMENT #%d plan=[%s] deps=[%s] oracle=%b static=%a"
        c.cs_index c.cs_plan c.cs_deps c.cs_oracle Direction.pp c.cs_static)
    r.rs_disagreements
