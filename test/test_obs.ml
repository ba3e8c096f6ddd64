(* Observability-layer tests: span nesting against a deterministic clock,
   counter/histogram arithmetic and merging, JSONL round-trips through the
   event codec and the file sink, fork/absorb event-order determinism, and
   the end-to-end contract that a traced search produces identical
   [search.*] counters and trace content for workers=1 and workers=4. *)

let setup () =
  let rng = Rng.create 77 in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  (rng, model, probe)

(* --- clock -------------------------------------------------------------- *)

let t_clock_manual () =
  let c = Obs_clock.manual ~start:10.0 ~step:0.5 () in
  Alcotest.(check (float 1e-9)) "first reading is start" 10.0 (c ());
  Alcotest.(check (float 1e-9)) "advances by step" 10.5 (c ());
  Alcotest.(check (float 1e-9)) "again" 11.0 (c ())

(* --- spans -------------------------------------------------------------- *)

let kinds_names_depths events =
  List.map
    (fun e -> (Obs_event.kind_name e.Obs_event.e_kind, e.e_name, e.e_depth))
    events

let t_span_nesting () =
  let obs = Obs.create ~clock:(Obs_clock.manual ()) () in
  Obs.with_span obs "outer" (fun () ->
      Obs.with_span obs "inner" (fun () -> Obs.note obs ~detail:"x" "mark");
      Obs.with_span obs "inner2" (fun () -> ()));
  Alcotest.(check (list (triple string string int)))
    "event structure"
    [ ("span_begin", "outer", 0);
      ("span_begin", "inner", 1);
      ("note", "mark", 2);
      ("span_end", "inner", 1);
      ("span_begin", "inner2", 1);
      ("span_end", "inner2", 1);
      ("span_end", "outer", 0) ]
    (kinds_names_depths (Obs.events obs));
  (* Manual clock ticks once per reading, so durations are exact: inner
     wraps [enter; note; leave] = 2 ticks, outer wraps everything. *)
  let durations =
    List.filter_map
      (fun e ->
        match e.Obs_event.e_kind with
        | Obs_event.Span_end -> Some (e.e_name, Option.get e.e_dur_s)
        | _ -> None)
      (Obs.events obs)
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "durations from the injected clock"
    [ ("inner", 2.0); ("inner2", 1.0); ("outer", 6.0) ]
    durations;
  (* Span durations feed the per-phase histograms. *)
  let h = Option.get (Metrics.histogram (Obs.metrics obs) "span.inner") in
  Alcotest.(check int) "span.inner observed once" 1 h.Metrics.h_count;
  Alcotest.(check (float 1e-9)) "span.inner total" 2.0 h.h_sum_s

let t_span_exception_safe () =
  let obs = Obs.create ~clock:(Obs_clock.manual ()) () in
  (try
     Obs.with_span obs "boom" (fun () -> failwith "inside")
   with Failure _ -> ());
  Alcotest.(check (list (triple string string int)))
    "span closed despite the raise"
    [ ("span_begin", "boom", 0); ("span_end", "boom", 0) ]
    (kinds_names_depths (Obs.events obs))

let t_disabled_noop () =
  let obs = Obs.disabled in
  let r = Obs.with_span obs "x" (fun () -> 42) in
  Obs.incr obs "c";
  Obs.observe obs "h" 1.0;
  Obs.note obs "n";
  Alcotest.(check int) "with_span still runs the thunk" 42 r;
  Alcotest.(check bool) "disabled" false (Obs.enabled obs);
  Alcotest.(check int) "no events" 0 (List.length (Obs.events obs));
  Alcotest.(check int) "no counters" 0 (Metrics.counter (Obs.metrics obs) "c");
  Alcotest.(check (float 0.0)) "clock reads as zero" 0.0 (Obs.now obs);
  Alcotest.(check bool) "fork is itself" true (Obs.fork obs == obs)

(* --- metrics ------------------------------------------------------------ *)

let t_metrics_math () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.add m "a" 4;
  Metrics.set m "b" 7;
  Alcotest.(check int) "incr+add" 5 (Metrics.counter m "a");
  Alcotest.(check int) "set" 7 (Metrics.counter m "b");
  Alcotest.(check int) "untouched counter reads 0" 0 (Metrics.counter m "zzz");
  List.iter (Metrics.observe m "h") [ 0.5e-6; 3e-4; 3e-4; 2.0 ];
  let h = Option.get (Metrics.histogram m "h") in
  Alcotest.(check int) "count" 4 h.Metrics.h_count;
  Alcotest.(check (float 1e-12)) "sum" (0.5e-6 +. 3e-4 +. 3e-4 +. 2.0) h.h_sum_s;
  Alcotest.(check (float 1e-12)) "min" 0.5e-6 h.h_min_s;
  Alcotest.(check (float 1e-12)) "max" 2.0 h.h_max_s;
  Alcotest.(check int) "buckets hold every observation" 4
    (Array.fold_left ( + ) 0 h.h_buckets);
  (* 0.5µs falls in the first bucket (≤1µs); 3e-4 in the ≤1e-3 bucket. *)
  Alcotest.(check int) "1µs bucket" 1 h.h_buckets.(0);
  Alcotest.(check int) "1ms bucket" 2 h.h_buckets.(3)

let t_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a "c" 2;
  Metrics.add b "c" 3;
  Metrics.add b "only_b" 1;
  Metrics.observe a "h" 1.0;
  Metrics.observe b "h" 3.0;
  Metrics.observe b "hb" 0.25;
  Metrics.merge a b;
  Alcotest.(check int) "counters add" 5 (Metrics.counter a "c");
  Alcotest.(check int) "missing counters created" 1 (Metrics.counter a "only_b");
  let h = Option.get (Metrics.histogram a "h") in
  Alcotest.(check int) "histogram counts add" 2 h.Metrics.h_count;
  Alcotest.(check (float 1e-12)) "sums add" 4.0 h.h_sum_s;
  Alcotest.(check (float 1e-12)) "min is min" 1.0 h.h_min_s;
  Alcotest.(check (float 1e-12)) "max is max" 3.0 h.h_max_s;
  Alcotest.(check bool) "missing histograms created" true
    (Metrics.histogram a "hb" <> None);
  (* merge leaves the source untouched *)
  Alcotest.(check int) "source untouched" 3 (Metrics.counter b "c")

(* --- JSONL round-trip --------------------------------------------------- *)

let sample_events =
  [ Obs_event.span_begin ~name:"search" ~depth:0 ~t:1234.5678;
    Obs_event.span_end ~name:"fisher" ~depth:2 ~t:0.001 ~dur_s:9.53e-07;
    Obs_event.note ~detail:"quote\" slash\\ tab\t nl\n ctl\001 end" ~name:"quarantine"
      ~depth:3 ~t:1e-9 ();
    Obs_event.note ~name:"bare" ~depth:0 ~t:0.0 () ]

let t_event_json_roundtrip () =
  List.iter
    (fun e ->
      match Obs_event.of_json (Obs_event.to_json e) with
      | None -> Alcotest.failf "unparseable: %s" (Obs_event.to_json e)
      | Some e' ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip of %s" (Obs_event.to_json e))
            true (e = e'))
    sample_events;
  Alcotest.(check (option reject)) "garbage rejected" None
    (Obs_event.of_json "not json at all");
  Alcotest.(check (option reject)) "missing fields rejected" None
    (Obs_event.of_json "{\"kind\":\"note\"}")

let t_sink_file_roundtrip () =
  let sink = Trace_sink.memory () in
  List.iter (Trace_sink.emit sink) sample_events;
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_sink.write_to sink path;
      let back =
        match Trace_sink.load path with Ok back -> back | Error m -> Alcotest.fail m
      in
      Alcotest.(check int) "all lines parsed" (List.length sample_events)
        (List.length back);
      Alcotest.(check bool) "file round-trip is lossless" true
        (back = sample_events))

(* A trace cut short mid-line (a crashed writer) must be reported, not
   read as a shorter trace; blank lines are still skipped. *)
let t_sink_truncated_line () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let line e = Obs_event.to_json e ^ "\n" in
      let third = Obs_event.to_json (List.nth sample_events 2) in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (line (List.nth sample_events 0));
          output_string oc "\n";
          output_string oc (line (List.nth sample_events 1));
          output_string oc (String.sub third 0 (String.length third / 2)));
      Alcotest.(check (result reject string)) "names the truncated line"
        (Error (path ^ ": line 4 is not a trace event"))
        (Trace_sink.load path);
      Out_channel.with_open_text path (fun oc ->
          output_string oc "\n";
          output_string oc (line (List.nth sample_events 0)));
      Alcotest.(check int) "blank lines skipped" 1
        (List.length (Result.get_ok (Trace_sink.load path))))

(* --- fork / absorb ------------------------------------------------------ *)

let t_fork_absorb_order () =
  let obs = Obs.create ~clock:(Obs_clock.manual ()) () in
  Obs.with_span obs "parent" (fun () ->
      let w0 = Obs.fork obs and w1 = Obs.fork obs in
      Obs.with_span w0 "w0-span" (fun () -> Obs.incr w0 "work");
      Obs.with_span w1 "w1-span" (fun () -> Obs.incr w1 "work");
      Obs.absorb obs w0;
      Obs.absorb obs w1);
  Alcotest.(check (list (triple string string int)))
    "worker events appended in absorb order, at inherited depth"
    [ ("span_begin", "parent", 0);
      ("span_begin", "w0-span", 1);
      ("span_end", "w0-span", 1);
      ("span_begin", "w1-span", 1);
      ("span_end", "w1-span", 1);
      ("span_end", "parent", 0) ]
    (kinds_names_depths (Obs.events obs));
  Alcotest.(check int) "worker counters merged" 2
    (Metrics.counter (Obs.metrics obs) "work")

(* --- traced search determinism ------------------------------------------ *)

let search_counters obs =
  List.filter
    (fun (k, _) -> String.length k >= 7 && String.sub k 0 7 = "search.")
    (Metrics.counters (Obs.metrics obs))

let stripped_trace obs = List.map Obs_event.strip_times (Obs.events obs)

let run_traced ~workers =
  let rng, model, probe = setup () in
  let obs = Obs.create () in
  let ctx = Eval_ctx.create ~obs () in
  let r =
    Unified_search.search ~candidates:24 ~workers ~ctx ~rng:(Rng.split rng)
      ~device:Device.i7 ~probe model
  in
  (r, obs)

let t_traced_search_deterministic () =
  let r1, obs1 = run_traced ~workers:1 in
  let r4, obs4 = run_traced ~workers:4 in
  Alcotest.(check string) "same winner"
    (Unified_search.plans_signature r1.Unified_search.r_best.Unified_search.cd_plans)
    (Unified_search.plans_signature r4.Unified_search.r_best.Unified_search.cd_plans);
  Alcotest.(check (list (pair string int)))
    "search.* counters bit-identical across worker counts"
    (search_counters obs1) (search_counters obs4);
  Alcotest.(check bool) "counters non-trivial" true
    (List.mem_assoc "search.generated" (search_counters obs1));
  Alcotest.(check int) "trace sizes agree"
    (List.length (stripped_trace obs1))
    (List.length (stripped_trace obs4));
  Alcotest.(check bool) "trace content identical once times are stripped" true
    (stripped_trace obs1 = stripped_trace obs4);
  (* The counters agree with the search result itself. *)
  Alcotest.(check int) "fisher_rejected = r_rejected" r1.r_rejected
    (Metrics.counter (Obs.metrics obs1) "search.fisher_rejected");
  Alcotest.(check int) "generated = r_explored" r1.r_explored
    (Metrics.counter (Obs.metrics obs1) "search.generated")

(* --- report ------------------------------------------------------------- *)

let t_report () =
  let m = Metrics.create () in
  Metrics.set m "search.generated" 40;
  Metrics.set m "search.fisher_rejected" 36;
  Metrics.set m "search.cost_ranked" 4;
  Metrics.observe m "span.fisher" 0.5;
  Metrics.observe m "span.fisher" 0.25;
  Metrics.observe m "span.cost" 0.1;
  let r = Report.of_metrics ~wall_s:1.5 m in
  Alcotest.(check (float 1e-9)) "rejection fraction" 0.9 r.Report.rp_rejection_fraction;
  Alcotest.(check (float 1e-9)) "paper claim" 0.9 r.rp_paper_fraction;
  Alcotest.(check int) "phases found" 2 (List.length r.rp_phases);
  (let fisher = List.hd r.rp_phases in
   Alcotest.(check string) "slowest phase first" "fisher" fisher.Report.ph_name;
   Alcotest.(check int) "phase count" 2 fisher.ph_count;
   Alcotest.(check (float 1e-9)) "phase total" 0.75 fisher.ph_total_s);
  (* An empty registry must not divide by zero. *)
  let empty = Report.of_metrics (Metrics.create ()) in
  Alcotest.(check (float 0.0)) "empty fraction" 0.0 empty.rp_rejection_fraction

let () =
  Alcotest.run "obs"
    [ ( "clock",
        [ Alcotest.test_case "manual clock" `Quick t_clock_manual ] );
      ( "span",
        [ Alcotest.test_case "nesting, depths, durations" `Quick t_span_nesting;
          Alcotest.test_case "exception safety" `Quick t_span_exception_safe;
          Alcotest.test_case "disabled recorder no-ops" `Quick t_disabled_noop ] );
      ( "metrics",
        [ Alcotest.test_case "counter and histogram math" `Quick t_metrics_math;
          Alcotest.test_case "merge" `Quick t_metrics_merge ] );
      ( "jsonl",
        [ Alcotest.test_case "event round-trip" `Quick t_event_json_roundtrip;
          Alcotest.test_case "file sink round-trip" `Quick t_sink_file_roundtrip;
          Alcotest.test_case "truncated line" `Quick t_sink_truncated_line ] );
      ( "fork-absorb",
        [ Alcotest.test_case "event order and depth" `Quick t_fork_absorb_order ] );
      ( "search",
        [ Alcotest.test_case "workers=1 vs workers=4 telemetry" `Slow
            t_traced_search_deterministic ] );
      ( "report",
        [ Alcotest.test_case "summary rendering" `Quick t_report ] ) ]
