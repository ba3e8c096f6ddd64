(* Observability demo: run a small traced search, write the JSONL trace,
   read it back and pretty-print the span tree, then show the summary
   report.  (README "Observability" section points here.)

     dune exec examples/trace_demo.exe *)

let () =
  let rng = Rng.create 42 in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  let trace_file = Filename.temp_file "trace_demo" ".jsonl" in
  let obs = Obs.create ~trace_file () in
  let ctx = Eval_ctx.create ~obs () in
  Printf.printf "running a traced 20-candidate search on resnet18/CPU...\n%!";
  let r =
    Unified_search.search ~candidates:20 ~ctx ~rng:(Rng.split rng)
      ~device:Device.i7 ~probe model
  in
  Obs.close obs;
  Printf.printf "wrote %d events to %s\n\n" (Trace_sink.length (Obs.sink obs))
    trace_file;
  (* Round-trip: everything below is read back from the JSONL file. *)
  let events =
    match Trace_sink.load trace_file with Ok events -> events | Error m -> failwith m
  in
  print_endline "trace (from the JSONL file; '>' opens a span, '<' closes it):";
  List.iter (fun e -> Format.printf "  %a@." Obs_event.pp e) events;
  Format.printf "@.%a" Report.pp
    (Report.of_metrics ~wall_s:r.Unified_search.r_wall_s (Obs.metrics obs));
  Format.printf "@.best candidate: %.2fx speedup over baseline@."
    (Unified_search.speedup r);
  Sys.remove trace_file
