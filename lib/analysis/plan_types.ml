(* A static type system for the plan language.

   The typing environment mirrors exactly the part of a [Poly.t] schedule
   that decides whether a [Plan_lint.step] is applicable and useful: the
   iteration domain (channel state) and the mixed-radix digit structure of
   every loop.  Per-loop annotations (unroll, vectorize, parallelize) are
   erased — they never influence applicability — which makes the judgment
   a pure fold over abstract states and keeps the enumerator's state space
   small.

   This is the only statement of the per-step side conditions.  A failed
   condition is a diagnostic: an error when [Poly] would reject the step,
   a warning when the step applies but changes nothing.  The judgment is
   deliberately *strict* — any finding makes a step ill-typed, so typed
   plans carry no no-ops — while [lint] below projects the same findings
   onto a concrete schedule and applies warning-only steps.  The reference
   for both is [Poly]: {!Sanitizer.run_typed} and the test-suite check
   the verdicts and successor states against the real transformations. *)

type env = {
  te_domain : (string * int) list;
  te_loops : Poly.digit list list;
}

let env_of_schedule (t : Poly.t) =
  { te_domain = t.Poly.domain;
    te_loops = List.map (fun (l : Poly.loop) -> l.Poly.digits) t.Poly.loops }

let env_of_nest nest = env_of_schedule (Loop_nest.baseline_schedule nest)

let schedule_of_env env : Poly.t =
  { Poly.domain = env.te_domain;
    loops =
      List.map
        (fun digits ->
          { Poly.digits; unroll = 1; vectorized = false; prefetched = false;
            parallelized = false; bind = None })
        env.te_loops;
    neural_log = [] }

let loop_count env = List.length env.te_loops

let loop_extent digits =
  List.fold_left (fun acc (d : Poly.digit) -> acc * d.Poly.extent) 1 digits

let equal a b = a.te_domain = b.te_domain && a.te_loops = b.te_loops

let rule_name = function
  | Plan_lint.Interchange _ -> "T-Interchange"
  | Plan_lint.Reorder _ -> "T-Reorder"
  | Plan_lint.Split _ -> "T-Split"
  | Plan_lint.Tile _ -> "T-Tile"
  | Plan_lint.Fuse _ -> "T-Fuse"
  | Plan_lint.Unroll _ -> "T-Unroll"
  | Plan_lint.Vectorize _ -> "T-Vectorize"
  | Plan_lint.Parallelize _ -> "T-Parallelize"
  | Plan_lint.Group _ -> "T-Group"
  | Plan_lint.Bottleneck _ -> "T-Bottleneck"
  | Plan_lint.Depthwise -> "T-Depthwise"

(* --- printing ---------------------------------------------------------- *)

let digit_name (d : Poly.digit) =
  match d.Poly.contribs with
  | [] -> "_"
  | [ { Poly.src; weight = 1 } ] -> src
  | [ { Poly.src; weight } ] -> Printf.sprintf "%s/%d" src weight
  | contribs -> String.concat "+" (List.map (fun (c : Poly.contrib) -> c.Poly.src) contribs)

let pp ppf env =
  Format.fprintf ppf "@[<h>%s ⊢ %s@]"
    (String.concat " "
       (List.map (fun (n, e) -> Printf.sprintf "%s<%d" n e) env.te_domain))
    (String.concat " "
       (List.map
          (fun digits ->
            Printf.sprintf "%s[%d]"
              (String.concat "." (List.map digit_name digits))
              (loop_extent digits))
          env.te_loops))

(* --- helpers mirroring the Poly transformations ------------------------ *)

let update_at pos f loops = List.mapi (fun i l -> if i = pos then f l else l) loops

(* Position of a loop consisting of exactly the iterator's single
   weight-1 digit at full domain extent; the *last* match, as in
   [Poly.whole_loop_of]. *)
let whole_loop_of env name =
  match List.assoc_opt name env.te_domain with
  | None -> None
  | Some extent ->
      let found = ref None in
      List.iteri
        (fun li digits ->
          match digits with
          | [ { Poly.contribs = [ { Poly.src; weight = 1 } ]; extent = e } ]
            when src = name && e = extent ->
              found := Some li
          | _ -> ())
        env.te_loops;
      !found

(* The leading (highest-weight) digit of an iterator: first occurrence of
   the maximal weight in loop-then-digit order, as in [Poly.bottleneck]. *)
let leading_digit env name =
  let best = ref None in
  List.iteri
    (fun li digits ->
      List.iteri
        (fun di (d : Poly.digit) ->
          List.iter
            (fun (c : Poly.contrib) ->
              if c.Poly.src = name then
                match !best with
                | Some (_, _, w) when w >= c.Poly.weight -> ()
                | _ -> best := Some (li, di, c.Poly.weight))
            d.Poly.contribs)
        digits)
    env.te_loops;
  match !best with
  | None -> None
  | Some (li, di, _) -> Some (li, di, List.nth (List.nth env.te_loops li) di)

(* Mirror of [Poly.group]'s loop surgery; all preconditions already
   checked by the caller. *)
let group_loops env ~co ~ci ~factor ~pco ~pci =
  let eco = List.assoc co env.te_domain and eci = List.assoc ci env.te_domain in
  let slice =
    [ { Poly.contribs =
          [ { Poly.src = co; weight = eco / factor };
            { Poly.src = ci; weight = eci / factor } ];
        extent = factor } ]
  in
  let co_inner = [ { Poly.contribs = [ { Poly.src = co; weight = 1 } ]; extent = eco / factor } ] in
  let ci_inner = [ { Poly.contribs = [ { Poly.src = ci; weight = 1 } ]; extent = eci / factor } ] in
  let keep = List.filter (fun l -> loop_extent l > 1) in
  List.concat
    (List.mapi
       (fun i l ->
         if i = pco then keep [ slice; co_inner ]
         else if i = pci then keep [ ci_inner ]
         else [ l ])
       env.te_loops)

(* --- the judgment ------------------------------------------------------ *)

let infer env step =
  let n = loop_count env in
  let rule = rule_name step in
  let bad_dim i =
    if i < 0 || i >= n then
      [ Diagnostic.error ~loop:i ~code:"bad-dimension"
          "%s: dimension %d is out of range (env has %d loops)" rule i n ]
    else []
  in
  let split_like i f =
    match bad_dim i with
    | _ :: _ as ds -> Error ds
    | [] -> (
        let digits = List.nth env.te_loops i in
        if f = 1 then
          Error
            [ Diagnostic.warn ~loop:i ~code:"no-op"
                "%s: factor 1 leaves the schedule unchanged" rule ]
        else
          match digits with
          | [ d ] ->
              if f <= 0 || d.Poly.extent mod f <> 0 then
                Error
                  [ Diagnostic.error ~loop:i ~code:"indivisible-tile"
                      "%s: factor %d does not divide the loop extent %d" rule f
                        d.Poly.extent ]
              else
                let outer =
                  [ { Poly.contribs =
                        List.map
                          (fun (c : Poly.contrib) -> { c with Poly.weight = c.Poly.weight * f })
                          d.Poly.contribs;
                      extent = d.Poly.extent / f } ]
                in
                let inner = [ { d with Poly.extent = f } ] in
                Ok (outer, inner)
          | _ ->
              Error
                [ Diagnostic.error ~loop:i ~code:"fused-loop"
                    "%s: loop %d is fused; split before fusing" rule i ])
  in
  let group_like ~co ~ci ~factor =
    match (List.assoc_opt co env.te_domain, List.assoc_opt ci env.te_domain) with
    | None, _ | _, None ->
        Error
          [ Diagnostic.error ~code:"unknown-iterator"
              "%s: needs %s and %s iterators in the domain" rule co ci ]
    | Some eco, Some eci ->
        if factor <= 1 then
          Error
            [ Diagnostic.error ~code:"degenerate-groups"
                "%s: group count %d is degenerate (must exceed 1)" rule factor ]
        else if eco mod factor <> 0 || eci mod factor <> 0 then
          Error
            [ Diagnostic.error ~code:"indivisible-channel"
                "%s: group count %d must divide both %s (%d) and %s (%d)" rule
                  factor co eco ci eci ]
        else
          match (whole_loop_of env co, whole_loop_of env ci) with
          | Some pco, Some pci ->
              Ok { env with te_loops = group_loops env ~co ~ci ~factor ~pco ~pci }
          | None, _ ->
              Error
                [ Diagnostic.error ~code:"not-whole-loop"
                    "%s: %s must be a whole un-split loop" rule co ]
          | _, None ->
              Error
                [ Diagnostic.error ~code:"not-whole-loop"
                    "%s: %s must be a whole un-split loop" rule ci ]
  in
  match step with
  | Plan_lint.Interchange (i, j) -> (
      match bad_dim i @ bad_dim j with
      | _ :: _ as ds -> Error ds
      | [] ->
          if i = j then
            Error
              [ Diagnostic.warn ~loop:i ~code:"no-op"
                  "%s: interchange of dimension %d with itself is a no-op" rule i ]
          else
            let li = List.nth env.te_loops i and lj = List.nth env.te_loops j in
            Ok
              { env with
                te_loops =
                  List.mapi
                    (fun k l -> if k = i then lj else if k = j then li else l)
                    env.te_loops })
  | Plan_lint.Reorder p ->
      if List.length p <> n || List.sort_uniq compare p <> List.init n (fun i -> i)
      then
        Error
          [ Diagnostic.error ~code:"bad-dimension"
              "%s: reorder must be a permutation of 0..%d, got [%s]" rule (n - 1)
                (String.concat "," (List.map string_of_int p)) ]
      else if p = List.init n (fun i -> i) then
        Error
          [ Diagnostic.warn ~code:"no-op"
              "%s: reorder by the identity permutation is a no-op" rule ]
      else
        let arr = Array.of_list env.te_loops in
        Ok { env with te_loops = List.map (fun i -> arr.(i)) p }
  | Plan_lint.Split (i, f) -> (
      match split_like i f with
      | Error ds -> Error ds
      | Ok (outer, inner) ->
          let rec insert k = function
            | [] -> []
            | l :: rest ->
                if k = i then outer :: inner :: rest else l :: insert (k + 1) rest
          in
          Ok { env with te_loops = insert 0 env.te_loops })
  | Plan_lint.Tile (i, f) -> (
      match split_like i f with
      | Error ds -> Error ds
      | Ok (outer, inner) ->
          (* As [Poly.tile]: split, then sink the fresh inner loop innermost. *)
          let rec insert k = function
            | [] -> []
            | l :: rest -> if k = i then outer :: rest else l :: insert (k + 1) rest
          in
          Ok { env with te_loops = insert 0 env.te_loops @ [ inner ] })
  | Plan_lint.Fuse i -> (
      match bad_dim i with
      | _ :: _ as ds -> Error ds
      | [] ->
          if i + 1 >= n then
            Error
              [ Diagnostic.error ~loop:i ~code:"bad-dimension"
                  "%s: fuse needs a loop below dimension %d" rule i ]
          else
            let fused = List.nth env.te_loops i @ List.nth env.te_loops (i + 1) in
            let rec rebuild k = function
              | [] -> []
              | _ :: rest when k = i + 1 -> rebuild (k + 1) rest
              | l :: rest -> (if k = i then fused else l) :: rebuild (k + 1) rest
            in
            Ok { env with te_loops = rebuild 0 env.te_loops })
  | Plan_lint.Unroll (i, f) -> (
      match bad_dim i with
      | _ :: _ as ds -> Error ds
      | [] ->
          if f <= 0 then
            Error
              [ Diagnostic.error ~loop:i ~code:"degenerate-factor"
                  "%s: unroll factor %d is degenerate (must be positive)" rule f ]
          else if f = 1 then
            Error
              [ Diagnostic.warn ~loop:i ~code:"no-op"
                  "%s: unroll by 1 leaves the loop rolled" rule ]
          else
            let e = loop_extent (List.nth env.te_loops i) in
            if f > e then
              Error
                [ Diagnostic.warn ~loop:i ~code:"unroll-overflow"
                    "%s: unroll factor %d exceeds the loop extent %d and will be \
                     clamped" rule f e ]
            else Ok env)
  | Plan_lint.Vectorize i | Plan_lint.Parallelize i -> (
      match bad_dim i with _ :: _ as ds -> Error ds | [] -> Ok env)
  | Plan_lint.Group f -> group_like ~co:"co" ~ci:"ci" ~factor:f
  | Plan_lint.Bottleneck (it, f) -> (
      match List.assoc_opt it env.te_domain with
      | None ->
          Error
            [ Diagnostic.error ~code:"unknown-iterator"
                "%s: bottleneck names unknown iterator %s" rule it ]
      | Some e ->
          if f <= 1 then
            Error
              [ Diagnostic.error ~code:"degenerate-factor"
                  "%s: bottleneck factor %d is degenerate (must exceed 1)" rule f ]
          else if e mod f <> 0 then
            Error
              [ Diagnostic.error ~code:"indivisible-extent"
                  "%s: bottleneck factor %d does not divide the %s extent %d" rule
                    f it e ]
          else
            match leading_digit env it with
            | None ->
                Error
                  [ Diagnostic.error ~code:"unscheduled-iterator"
                      "%s: iterator %s is not scheduled" rule it ]
            | Some (li, di, d) ->
                if List.length d.Poly.contribs > 1 then
                  Error
                    [ Diagnostic.error ~loop:li ~code:"shared-digit"
                        "%s: leading digit of %s is shared (grouped)" rule it ]
                else if d.Poly.extent mod f <> 0 then
                  Error
                    [ Diagnostic.error ~loop:li ~code:"indivisible-digit"
                        "%s: factor %d does not divide the leading extent %d" rule
                          f d.Poly.extent ]
                else
                  let d' = { d with Poly.extent = d.Poly.extent / f } in
                  Ok
                    { te_domain =
                        List.map
                          (fun (name, ex) -> if name = it then (name, ex / f) else (name, ex))
                          env.te_domain;
                      te_loops =
                        update_at li
                          (fun digits ->
                            List.mapi (fun k x -> if k = di then d' else x) digits)
                          env.te_loops })
  | Plan_lint.Depthwise -> (
      match (List.assoc_opt "co" env.te_domain, List.assoc_opt "ci" env.te_domain) with
      | None, _ | _, None ->
          Error
            [ Diagnostic.error ~code:"unknown-iterator"
                "%s: depthwise needs co and ci iterators in the domain" rule ]
      | Some eco, Some eci ->
          if eco <> eci then
            Error
              [ Diagnostic.error ~code:"depthwise-mismatch"
                  "%s: depthwise requires equal channel extents, got co=%d ci=%d"
                    rule eco eci ]
          else group_like ~co:"co" ~ci:"ci" ~factor:eco)

let check ?(deps = []) env steps =
  let rec go env = function
    | [] -> Ok env
    | s :: rest -> (
        match infer env s with Ok e -> go e rest | Error _ as e -> e)
  in
  match go env steps with
  | Error _ as e -> e
  | Ok final ->
      if deps = [] then Ok final
      else (
        match Direction.check (schedule_of_env final) deps with
        | Direction.Legal -> Ok final
        | Direction.Illegal ds ->
            Error
              (Diagnostic.error ~code:"illegal-dependence"
                 "T-Legal: the composed schedule reverses a dependence"
              :: ds)
        | Direction.Unknown why ->
            Error
              [ Diagnostic.error ~code:"legality-unknown"
                  "T-Legal: direction analysis is undecided: %s" why ])

(* --- the linter: the judgment projected onto concrete schedules -------- *)

(* Every finding comes from [infer]; warnings do not stop the walk, the
   step is applied through [Poly] as written.  [apply] keeps the last
   word: should it still reject a step the judgment let through, that is
   reported rather than raised. *)
let lint (t : Poly.t) steps =
  let rec go t diags = function
    | [] -> (Some t, diags)
    | step :: rest -> (
        let found =
          match infer (env_of_schedule t) step with Ok _ -> [] | Error ds -> ds
        in
        let diags = diags @ found in
        if List.exists Diagnostic.is_error found then (None, diags)
        else
          match Plan_lint.apply t step with
          | t' -> go t' diags rest
          | exception Poly.Illegal msg ->
              ( None,
                diags
                @ [ Diagnostic.error ~code:"illegal-transformation"
                      "step %s rejected: %s" (Plan_lint.to_string step) msg ] ))
  in
  go t [] steps

(* --- rule inversion ----------------------------------------------------- *)

let well_typed env s = match infer env s with Ok _ -> true | Error _ -> false

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l

(* Candidate argument sets per step kind, derived from the env (divisor
   sets, dimension ranges, domain iterators) and kept only when [infer]
   accepts them.  The generators are complete — every well-typed
   instantiation of the kind is produced — so [choices] is exactly the
   set of steps the judgment accepts, which the exhaustiveness test pins
   against a brute-force syntactic universe. *)
let choices_by_kind env =
  let n = loop_count env in
  let dims = List.init n (fun i -> i) in
  let extents = List.map loop_extent env.te_loops in
  let keep = List.filter (well_typed env) in
  let interchanges =
    keep
      (List.concat_map
         (fun i -> List.filter_map (fun j -> if i <> j then Some (Plan_lint.Interchange (i, j)) else None) dims)
         dims)
  in
  let splits mk =
    keep
      (List.concat_map
         (fun i -> List.map (fun f -> mk i f) (Divisors.gt1 (List.nth extents i)))
         dims)
  in
  let fuses = keep (List.map (fun i -> Plan_lint.Fuse i) dims) in
  let unrolls =
    keep
      (List.concat_map
         (fun i ->
           List.init
             (max 0 (List.nth extents i - 1))
             (fun k -> Plan_lint.Unroll (i, k + 2)))
         dims)
  in
  let vectorizes = keep (List.map (fun i -> Plan_lint.Vectorize i) dims) in
  let parallelizes = keep (List.map (fun i -> Plan_lint.Parallelize i) dims) in
  let groups =
    match (List.assoc_opt "co" env.te_domain, List.assoc_opt "ci" env.te_domain) with
    | Some eco, Some eci ->
        keep (List.map (fun f -> Plan_lint.Group f) (Divisors.gt1 (min eco eci)))
    | _ -> []
  in
  let bottlenecks =
    keep
      (List.concat_map
         (fun (it, e) -> List.map (fun f -> Plan_lint.Bottleneck (it, f)) (Divisors.gt1 e))
         env.te_domain)
  in
  let depthwises = keep [ Plan_lint.Depthwise ] in
  [ interchanges; splits (fun i f -> Plan_lint.Split (i, f));
    splits (fun i f -> Plan_lint.Tile (i, f)); fuses; unrolls; vectorizes;
    parallelizes; groups; bottlenecks; depthwises ]

let reorder_choices env =
  let n = loop_count env in
  let identity = List.init n (fun i -> i) in
  List.filter_map
    (fun p -> if p = identity then None else Some (Plan_lint.Reorder p))
    (permutations identity)

let choices env =
  match choices_by_kind env with
  | interchanges :: rest -> interchanges @ reorder_choices env @ List.concat rest
  | [] -> reorder_choices env

let enumerate ~max_len env =
  let rec go env len =
    if len <= 0 then []
    else
      List.concat_map
        (fun s ->
          match infer env s with
          | Error _ -> []
          | Ok env' -> [ s ] :: List.map (fun p -> s :: p) (go env' (len - 1)))
        (choices env)
  in
  go env max_len

let sample_step rng env =
  let n = loop_count env in
  let kinds =
    List.filter (fun l -> l <> []) (choices_by_kind env)
    |> List.map (fun l () -> Rng.choice_list rng l)
  in
  let kinds =
    if n >= 2 then
      (fun () ->
        let p = Array.to_list (Rng.permutation rng n) in
        let p =
          if p = List.init n (fun i -> i) then
            (* derange the identity deterministically: swap the outer pair *)
            List.mapi (fun i x -> if i = 0 then 1 else if i = 1 then 0 else x) p
          else p
        in
        Plan_lint.Reorder p)
      :: kinds
    else kinds
  in
  match kinds with [] -> None | ks -> Some ((Rng.choice_list rng ks) ())

let sample_plan rng ~max_len env =
  let len = 1 + Rng.int rng (max 1 max_len) in
  let rec go env acc k =
    if k = 0 then (List.rev acc, env)
    else
      match sample_step rng env with
      | None -> (List.rev acc, env)
      | Some s -> (
          match infer env s with
          | Ok env' -> go env' (s :: acc) (k - 1)
          | Error _ -> (List.rev acc, env))
  in
  go env [] len
