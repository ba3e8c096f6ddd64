(* Typed-vs-Poly differential fuzzer CLI: fuzz seeded cases and fail
   (exit 1) when the plan typing judgment disagrees with the real
   transformations or the sampling oracle — a well-typed plan that Poly
   rejects, applies to a different state or whose T-Legal verdict the
   oracle contradicts, or a plan Poly applies that the judgment rejects
   with an error.  Wired into CI through the @typecheck-fuzz alias. *)

let () =
  let plans = ref 1000 and seed = ref 2026 and max_unknown = ref 0.2 in
  let max_points = ref 400 in
  let usage =
    "typecheck_diff [--plans N] [--seed S] [--max-unknown R] [--max-points P]"
  in
  Arg.parse
    [ ("--plans", Arg.Set_int plans, "N number of fuzzed cases (default 1000)");
      ("--seed", Arg.Set_int seed, "S corpus seed (default 2026)");
      ( "--max-unknown",
        Arg.Set_float max_unknown,
        "R maximum tolerated Unknown rate (default 0.2)" );
      ( "--max-points",
        Arg.Set_int max_points,
        "P sampling budget forwarded to the legality oracle (default 400)" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let report = Sanitizer.run_typed ~max_points:!max_points ~seed:!seed ~n:!plans () in
  Format.printf "%a@." Sanitizer.pp_typed_report report;
  if Sanitizer.typed_passed ~max_unknown_rate:!max_unknown report then exit 0
  else begin
    if report.Sanitizer.tt_disagreements <> [] then
      Format.eprintf "typecheck_diff: type system and Poly/oracle disagree@."
    else
      Format.eprintf "typecheck_diff: Unknown rate %.1f%% exceeds the %.1f%% bound@."
        (100.0 *. Sanitizer.typed_unknown_rate report)
        (100.0 *. !max_unknown);
    exit 1
  end
