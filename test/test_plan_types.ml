(* Typed plan algebra tests: the plan-syntax round-trip, degenerate lint
   inputs, a table-driven typing suite (one well-typed and one ill-typed
   instance per step kind), exhaustive agreement between the typed
   enumerator and the lint-clean set at small sizes, the typed
   differential fuzzer gate, and a property holding the judgment to
   [Poly] itself on ill-formed steps. *)

let conv_domain = [ ("co", 4); ("ci", 6); ("oh", 4); ("ow", 4) ]
let base_env () = Plan_types.env_of_schedule (Poly.of_domain conv_domain)

(* --- plan-syntax round-trip -------------------------------------------- *)

(* One generator per constructor, so shrinking a failure never changes the
   step kind and every kind is exercised (iterator names stay in the
   parser's alphabet). *)
let step_gen =
  let open QCheck.Gen in
  let dim = int_range 0 9 in
  let factor = int_range 1 64 in
  let iter = oneofl [ "co"; "ci"; "oh"; "ow"; "k0" ] in
  let perm = int_range 2 5 >>= fun n -> shuffle_l (List.init n (fun i -> i)) in
  oneof
    [ map2 (fun i j -> Plan_lint.Interchange (i, j)) dim dim;
      map (fun p -> Plan_lint.Reorder p) perm;
      map2 (fun p f -> Plan_lint.Split (p, f)) dim factor;
      map2 (fun p f -> Plan_lint.Tile (p, f)) dim factor;
      map (fun p -> Plan_lint.Fuse p) dim;
      map2 (fun p f -> Plan_lint.Unroll (p, f)) dim factor;
      map (fun p -> Plan_lint.Vectorize p) dim;
      map (fun p -> Plan_lint.Parallelize p) dim;
      map (fun f -> Plan_lint.Group f) factor;
      map2 (fun it f -> Plan_lint.Bottleneck (it, f)) iter factor;
      return Plan_lint.Depthwise ]

let plan_arb =
  QCheck.make
    ~print:(fun p -> Plan_lint.plan_to_string p)
    QCheck.Gen.(list_size (int_range 1 8) step_gen)

let roundtrip_prop plan =
  match Plan_lint.of_string (Plan_lint.plan_to_string plan) with
  | Ok plan' -> plan' = plan
  | Error e -> QCheck.Test.fail_reportf "parse error on rendered plan: %s" e

(* Every constructor also round-trips deterministically at least once. *)
let t_roundtrip_each_constructor () =
  let one_of_each =
    [ Plan_lint.Interchange (0, 1); Reorder [ 2; 0; 1 ]; Split (1, 3);
      Tile (2, 4); Fuse 0; Unroll (3, 2); Vectorize 3; Parallelize 0;
      Group 2; Bottleneck ("ci", 2); Depthwise ]
  in
  List.iter
    (fun step ->
      let s = Plan_lint.to_string step in
      match Plan_lint.of_string s with
      | Ok [ step' ] ->
          Alcotest.(check bool) (s ^ " round-trips") true (step = step')
      | Ok _ -> Alcotest.fail (s ^ ": parsed to a different arity")
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    one_of_each

(* --- degenerate lint inputs ------------------------------------------- *)

let lint_one step =
  let s = Poly.of_domain conv_domain in
  Plan_types.lint s [ step ]

let has_error diags =
  List.exists (fun d -> d.Diagnostic.d_severity = Diagnostic.Error) diags

let t_reorder_repeated_dimension () =
  (* A repeated index is a diagnostic, never an exception. *)
  let final, diags = lint_one (Plan_lint.Reorder [ 0; 0; 1; 2 ]) in
  Alcotest.(check bool) "error reported" true (has_error diags);
  Alcotest.(check bool) "plan rejected" true (final = None)

let t_reorder_out_of_range () =
  let final, diags = lint_one (Plan_lint.Reorder [ 0; 1; 2; 7 ]) in
  Alcotest.(check bool) "error reported" true (has_error diags);
  Alcotest.(check bool) "plan rejected" true (final = None)

let t_fuse_last_dimension () =
  (* Fusing the innermost loop has no successor to fuse with. *)
  let n = Poly.loop_count (Poly.of_domain conv_domain) in
  let final, diags = lint_one (Plan_lint.Fuse (n - 1)) in
  Alcotest.(check bool) "error reported" true (has_error diags);
  Alcotest.(check bool) "plan rejected" true (final = None)

let t_unroll_nonpositive_factor () =
  (* [Poly.unroll] rejects a factor below 1: one error, not a no-op. *)
  let final, diags = lint_one (Plan_lint.Unroll (2, 0)) in
  Alcotest.(check bool) "plan rejected" true (final = None);
  Alcotest.(check (list string)) "one degenerate-factor error"
    [ "error:degenerate-factor" ]
    (List.map
       (fun d ->
         Diagnostic.severity_to_string d.Diagnostic.d_severity ^ ":" ^ d.Diagnostic.d_code)
       diags)

let t_factor_one_out_of_range () =
  (* The factor-1 identity still needs an existing loop. *)
  let s = Poly.of_domain conv_domain in
  List.iter
    (fun step ->
      match Plan_lint.apply s step with
      | _ -> Alcotest.failf "%s applied" (Plan_lint.to_string step)
      | exception Poly.Illegal _ -> ())
    [ Plan_lint.Split (99, 1); Tile (99, 1) ]

(* --- table-driven typing suite ----------------------------------------- *)

(* One well-typed and one ill-typed instance per step kind (the judgment
   is checked against [Poly] by the [properties] group).  Depthwise needs
   its own square domain: on conv_domain it is the ill-typed sample
   (co <> ci). *)
let square_env () =
  Plan_types.env_of_schedule
    (Poly.of_domain [ ("co", 4); ("ci", 4); ("oh", 4); ("ow", 4) ])

let typing_table () =
  [ ("interchange well", base_env (), Plan_lint.Interchange (0, 1), true);
    ("interchange self is no-op", base_env (), Interchange (1, 1), false);
    ("reorder well", base_env (), Reorder [ 1; 0; 2; 3 ], true);
    ("reorder identity is no-op", base_env (), Reorder [ 0; 1; 2; 3 ], false);
    ("split well", base_env (), Split (1, 3), true);
    ("split indivisible", base_env (), Split (1, 5), false);
    ("tile well", base_env (), Tile (2, 2), true);
    ("tile indivisible", base_env (), Tile (2, 3), false);
    ("fuse well", base_env (), Fuse 0, true);
    ("fuse at last dim", base_env (), Fuse 3, false);
    ("unroll well", base_env (), Unroll (3, 2), true);
    ("unroll overflow", base_env (), Unroll (3, 8), false);
    ("unroll non-positive factor", base_env (), Unroll (3, 0), false);
    ("vectorize well", base_env (), Vectorize 3, true);
    ("vectorize out of range", base_env (), Vectorize 9, false);
    ("parallelize well", base_env (), Parallelize 0, true);
    ("parallelize out of range", base_env (), Parallelize 7, false);
    ("group well", base_env (), Group 2, true);
    ("group indivisible", base_env (), Group 5, false);
    ("bottleneck well", base_env (), Bottleneck ("ci", 2), true);
    ("bottleneck unknown iterator", base_env (), Bottleneck ("zz", 2), false);
    ("depthwise well", square_env (), Depthwise, true);
    ("depthwise channel mismatch", base_env (), Depthwise, false) ]

let t_typing_table () =
  List.iter
    (fun (name, env, step, expect_well) ->
      let typed =
        match Plan_types.infer env step with Ok _ -> true | Error _ -> false
      in
      Alcotest.(check bool) (name ^ ": judgment") expect_well typed;
      if not expect_well then
        (* Ill-typed diagnostics lead with the violated rule's name. *)
        let prefixed msg =
          let rule = Plan_types.rule_name step in
          String.length msg >= String.length rule
          && String.sub msg 0 (String.length rule) = rule
        in
        match Plan_types.infer env step with
        | Ok _ -> ()
        | Error diags ->
            Alcotest.(check bool) (name ^ ": names the rule") true
              (List.exists (fun d -> prefixed d.Diagnostic.d_msg) diags))
    (typing_table ())

(* --- exhaustiveness at small sizes ------------------------------------- *)

(* A bounded step universe built independently of the typed enumerator:
   dimensions beyond range, factors outside the divisor sets, bogus
   iterators and malformed permutations included.  Against it the
   enumerator must be exactly the lint-clean subset — soundness and
   completeness at once, with no sampling. *)
let universe env =
  let n = Plan_types.loop_count env in
  let dims = List.init (n + 2) (fun i -> i - 1) in
  (* 0..8 covers every divisor and unroll factor reachable from the
     2-loop [co=4, ci=2] start (fusing yields extent 8). *)
  let factors = List.init 9 (fun f -> f) in
  let iters = "zz" :: List.map fst env.Plan_types.te_domain in
  let perms =
    (* all permutations of 0..n-1, plus malformed lists *)
    let rec insert_everywhere x = function
      | [] -> [ [ x ] ]
      | y :: ys ->
          (x :: y :: ys)
          :: List.map (fun zs -> y :: zs) (insert_everywhere x ys)
    in
    let rec perms_of = function
      | [] -> [ [] ]
      | x :: xs -> List.concat_map (insert_everywhere x) (perms_of xs)
    in
    perms_of (List.init n (fun i -> i)) @ [ [ 0; 0 ]; [ 0; n ]; [ 0 ] ]
  in
  List.concat
    [ List.concat_map
        (fun i -> List.map (fun j -> Plan_lint.Interchange (i, j)) dims)
        dims;
      List.map (fun p -> Plan_lint.Reorder p) perms;
      List.concat_map
        (fun p -> List.map (fun f -> Plan_lint.Split (p, f)) factors)
        dims;
      List.concat_map
        (fun p -> List.map (fun f -> Plan_lint.Tile (p, f)) factors)
        dims;
      List.map (fun p -> Plan_lint.Fuse p) dims;
      List.concat_map
        (fun p -> List.map (fun f -> Plan_lint.Unroll (p, f)) factors)
        dims;
      List.map (fun p -> Plan_lint.Vectorize p) dims;
      List.map (fun p -> Plan_lint.Parallelize p) dims;
      List.map (fun f -> Plan_lint.Group f) factors;
      List.concat_map
        (fun it -> List.map (fun f -> Plan_lint.Bottleneck (it, f)) factors)
        iters;
      [ Plan_lint.Depthwise ] ]

let lint_clean env plan =
  match Plan_types.lint (Plan_types.schedule_of_env env) plan with
  | Some _, [] -> true
  | _ -> false

let plan_set plans =
  List.sort_uniq compare (List.map Plan_lint.plan_to_string plans)

let t_enumerate_matches_lint_clean () =
  let env = Plan_types.env_of_schedule (Poly.of_domain [ ("co", 4); ("ci", 2) ]) in
  let enumerated =
    List.filter
      (fun p -> List.length p <= 2)
      (Plan_types.enumerate ~max_len:2 env)
  in
  (* Brute force: every universe step, then every universe pair (the
     second universe drawn at the intermediate environment so factor/dim
     bounds track the evolved schedule). *)
  let len1 = List.filter (fun s -> lint_clean env [ s ]) (List.map (fun s -> [ s ]) (universe env) |> List.concat) in
  let len2 =
    List.concat_map
      (fun s1 ->
        match Plan_types.infer env s1 with
        | Error _ -> []
        | Ok env' ->
            List.filter_map
              (fun s2 ->
                if lint_clean env [ s1; s2 ] then Some [ s1; s2 ] else None)
              (universe env'))
      len1
  in
  let brute = plan_set (List.map (fun s -> [ s ]) len1 @ len2) in
  let typed = plan_set enumerated in
  (* Completeness: every lint-clean universe plan is enumerated. *)
  List.iter
    (fun p ->
      if not (List.mem p typed) then
        Alcotest.failf "lint-clean but not enumerated: %s" p)
    brute;
  (* Soundness: every enumerated plan is lint-clean (and in the universe's
     argument bounds, so the sets are equal). *)
  List.iter
    (fun p ->
      if not (List.mem p brute) then
        Alcotest.failf "enumerated but not lint-clean-in-universe: %s" p)
    typed;
  Alcotest.(check int) "same count" (List.length brute) (List.length typed)

(* Soundness of the samplers at full conv size, where enumeration is too
   big: every sampled plan lints clean. *)
let t_sampled_plans_lint_clean () =
  let env = base_env () in
  let rng = Rng.create 2026 in
  for _ = 1 to 50 do
    let plan, env' = Plan_types.sample_plan rng ~max_len:4 env in
    Alcotest.(check bool)
      ("lint-clean: " ^ Plan_lint.plan_to_string plan)
      true (lint_clean env plan);
    (* The final environment matches the linted schedule's abstraction. *)
    match Plan_types.lint (Plan_types.schedule_of_env env) plan with
    | Some s, [] ->
        Alcotest.(check bool) "env tracks schedule" true
          (Plan_types.equal env' (Plan_types.env_of_schedule s))
    | _ -> Alcotest.fail "sampled plan failed to lint"
  done

(* --- typed differential fuzzer gate ------------------------------------ *)

let t_typed_fuzzer_gate () =
  let r = Sanitizer.run_typed ~seed:2026 ~n:100 () in
  Alcotest.(check int) "all cases ran" 100 r.Sanitizer.tt_total;
  Alcotest.(check (list string)) "no disagreements" []
    (List.map
       (fun d -> d.Sanitizer.tp_kind ^ ": " ^ d.Sanitizer.tp_plan)
       r.Sanitizer.tt_disagreements);
  Alcotest.(check bool) "gate passes" true (Sanitizer.typed_passed r)

(* --- the judgment against Poly, ill-formed steps included ---------------- *)

(* Steps with out-of-range dimensions, non-permutation reorders and
   non-positive factors, which the CI fuzzer never generates. *)
let wild_step_gen =
  let open QCheck.Gen in
  let dim = int_range (-1) 7 in
  let factor = int_range (-1) 9 in
  let iter = oneofl [ "co"; "ci"; "oh"; "ow"; "zz" ] in
  let reorder =
    oneof
      [ (int_range 1 7 >>= fun n -> shuffle_l (List.init n (fun i -> i)));
        list_size (int_range 0 6) (int_range (-1) 6) ]
  in
  oneof
    [ map2 (fun i j -> Plan_lint.Interchange (i, j)) dim dim;
      map (fun p -> Plan_lint.Reorder p) reorder;
      map2 (fun p f -> Plan_lint.Split (p, f)) dim factor;
      map2 (fun p f -> Plan_lint.Tile (p, f)) dim factor;
      map (fun p -> Plan_lint.Fuse p) dim;
      map2 (fun p f -> Plan_lint.Unroll (p, f)) dim factor;
      map (fun p -> Plan_lint.Vectorize p) dim;
      map (fun p -> Plan_lint.Parallelize p) dim;
      map (fun f -> Plan_lint.Group f) factor;
      map2 (fun it f -> Plan_lint.Bottleneck (it, f)) iter factor;
      return Plan_lint.Depthwise ]

(* A small conv domain, a prefix of wild steps (those [Poly] rejects are
   skipped) to reach fused, split and grouped schedules, and the step
   under test. *)
let judged_arb =
  let open QCheck.Gen in
  let ext = oneofl [ 1; 2; 4; 6 ] in
  let domain =
    map
      (fun (co, ci, oh, ow) -> [ ("co", co); ("ci", ci); ("oh", oh); ("ow", ow) ])
      (quad ext ext ext ext)
  in
  QCheck.make
    ~print:(fun (d, prefix, step) ->
      Printf.sprintf "domain [%s] prefix [%s] step %s"
        (String.concat "," (List.map (fun (n, e) -> Printf.sprintf "%s=%d" n e) d))
        (Plan_lint.plan_to_string prefix) (Plan_lint.to_string step))
    (triple domain (list_size (int_range 0 5) wild_step_gen) wild_step_gen)

let judgment_matches_poly (domain, prefix, step) =
  let s =
    List.fold_left
      (fun s st -> try Plan_lint.apply s st with Poly.Illegal _ -> s)
      (Poly.of_domain domain) prefix
  in
  let env = Plan_types.env_of_schedule s in
  let applied =
    match Plan_lint.apply s step with
    | s' -> Some (Plan_types.env_of_schedule s')
    | exception Poly.Illegal _ -> None
  in
  match (Plan_types.infer env step, applied) with
  | Ok env', Some env_applied -> Plan_types.equal env' env_applied
  | Error ds, Some env_applied when Diagnostic.errors ds = [] ->
      Plan_types.equal env env_applied
  | Error ds, None when Diagnostic.errors ds <> [] -> true
  | Ok _, None -> QCheck.Test.fail_report "well-typed but Poly rejects it"
  | Error ds, Some _ ->
      QCheck.Test.fail_reportf "Poly applies it but the judgment errs: %s"
        (String.concat "; " (List.map Diagnostic.to_string ds))
  | Error ds, None ->
      QCheck.Test.fail_reportf "Poly rejects it but the judgment only warns: %s"
        (String.concat "; " (List.map Diagnostic.to_string ds))

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"plan syntax round-trips through of_string/to_string"
      ~count:200 plan_arb roundtrip_prop;
    Test.make
      ~name:"judgment errs exactly when Poly rejects; successor env matches"
      ~count:5000 judged_arb judgment_matches_poly ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "plan_types"
    [ ( "roundtrip",
        [ quick "each constructor" t_roundtrip_each_constructor ] );
      ( "degenerate",
        [ quick "reorder repeated" t_reorder_repeated_dimension;
          quick "reorder out of range" t_reorder_out_of_range;
          quick "fuse last dim" t_fuse_last_dimension;
          quick "unroll non-positive factor" t_unroll_nonpositive_factor;
          quick "factor-1 split out of range" t_factor_one_out_of_range ] );
      ("typing", [ quick "table" t_typing_table ]);
      ( "exhaustive",
        [ quick "enumerate = lint-clean" t_enumerate_matches_lint_clean;
          quick "samples lint clean" t_sampled_plans_lint_clean ] );
      ("fuzzer", [ quick "typed gate" t_typed_fuzzer_gate ]);
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
