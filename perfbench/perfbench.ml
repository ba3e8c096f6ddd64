(* The repository benchmark: one command, one workload, one seed.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Workloads (see README.md for why each was chosen):
     search-resnet18-random            serial one-shot random search
     search-mobilenet_small-guided-w2  guided beam search on two domains
     serve-mobilenet_small-repeat-closed
                                       in-process server, two closed-loop
                                       clients, 1 cold + 3 repeated asks per seed

   With --trace 0 the run measures the end-to-end metrics with tracing off;
   with --trace 1 it does the traced run and reports the per-layer metrics.
   Every layer is measured from outside, through its public functions.
   The work of a run is fixed by (workload, seed, seconds): --seconds sizes
   it against a nominal per-unit time, so the same arguments always do the
   same work.  Every correctness check that fails prints a reason on
   stderr and exits 1 without a result.  The last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

let now = Unix.gettimeofday
let device = Device.i7

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1)
    fmt

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
let median xs = Stats.median xs
let p90 xs = Stats.percentile xs 90.0
let ms s = 1000.0 *. s
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let spec_of network =
  match Zoo.find network with
  | Some e -> e.Zoo.ze_spec `Search
  | None -> fail "unknown network %s" network

(* Optional benchmark-side span: only the traced run records spans. *)
let span spans ~layer name f =
  match spans with Some s -> Spans.with_span s ~layer name f | None -> f ()

(* --- metrics ------------------------------------------------------------- *)

(* name, unit — the order and units of BENCHMARK.json. *)
let end_to_end =
  [ ("cand_per_s", "1/s"); ("cand_ms_p50", "ms"); ("speedup", "x"); ("setup_s", "s");
    ("req_per_s", "1/s"); ("latency_ms_p50", "ms"); ("latency_ms_p90", "ms") ]

let per_layer =
  [ ("search.generate_ms", "ms"); ("search.survivor_fraction", "ratio");
    ("analysis.check_us", "us"); ("fisher.ms_p50", "ms"); ("fisher.evals", "count");
    ("fisher.memo_hits", "count"); ("nn.rebuild_ms", "ms"); ("nn.forward_ms", "ms");
    ("nn.backward_ms", "ms"); ("tensor.conv_fwd_ns_per_mac.dense3x3", "ns/mac");
    ("tensor.conv_fwd_ns_per_mac.depthwise", "ns/mac");
    ("tensor.conv_bwd_ns_per_mac.dense3x3", "ns/mac");
    ("tensor.conv_bwd_ns_per_mac.depthwise", "ns/mac"); ("gc.alloc_mb_per_cand", "MB");
    ("gc.major_per_cand", "count"); ("cost.evals", "count"); ("cost.tune_configs", "count");
    ("cost.ms_per_ranked", "ms"); ("engine.worker_util_min", "ratio");
    ("engine.steals", "count"); ("engine.warm_from_ms", "ms");
    ("serve.session_ms_p50", "ms"); ("serve.overhead_ms_p50", "ms");
    ("serve.queue_wait_ms", "ms"); ("serve.fisher_hits_per_req", "count");
    ("obs.trace_overhead", "ratio"); ("trace.wall_ms", "ms");
    ("trace.unattributed_ms", "ms"); ("selftime.search_ms", "ms");
    ("selftime.analysis_ms", "ms"); ("selftime.fisher_ms", "ms");
    ("selftime.nn_ms", "ms"); ("selftime.tensor_ms", "ms"); ("selftime.cost_ms", "ms");
    ("selftime.engine_ms", "ms"); ("selftime.serve_ms", "ms"); ("selftime.data_ms", "ms") ]

(* The layers [selftime.*] reports; spans of any other layer are a bug. *)
let layers = [ "search"; "analysis"; "fisher"; "nn"; "tensor"; "cost"; "engine"; "serve"; "data" ]

(* Print the result line.  A metric the workload does not produce reads 0
   (the workload bypasses that layer); an end-to-end metric must be
   measured on every workload. *)
let emit ~attempted ~failed ~trace values =
  let table = if trace then per_layer else end_to_end in
  let fields =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v -> v
          | None -> if trace then 0.0 else fail "metric %s not measured" name
        in
        if not (Float.is_finite v) then fail "metric %s is not finite (%g)" name v;
        if (not trace) && v <= 0.0 then fail "metric %s is not positive (%g)" name v;
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      table
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name table) then fail "metric %s is not declared" name)
    values;
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed (String.concat ", " fields)

(* --- stop-hook recorder -------------------------------------------------- *)

(* The search polls [?stop] before every candidate (from the worker
   domains in a parallel run).  A hook that records the clock and the
   polling domain and answers "no" leaves the result bit-identical, and
   gives per-candidate times and time-to-first-candidate from outside. *)
type polls = {
  pl_lock : Mutex.t;
  mutable pl_polls : (int * float) list;
  mutable pl_rounds : float list;  (* end of each parallel evaluation round *)
  mutable pl_sched : Parallel_eval.run_stats list;
}

let polls () = { pl_lock = Mutex.create (); pl_polls = []; pl_rounds = []; pl_sched = [] }

let with_polls p f =
  Mutex.lock p.pl_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.pl_lock) f

let poll p =
  let t = now () and d = (Domain.self () :> int) in
  with_polls p (fun () -> p.pl_polls <- (d, t) :: p.pl_polls)

let on_sched p stats =
  let t = now () in
  with_polls p (fun () ->
      p.pl_rounds <- t :: p.pl_rounds;
      p.pl_sched <- stats :: p.pl_sched)

(* Candidate times: the gap between two consecutive polls on the same
   domain within one evaluation round. *)
let candidate_times p =
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun (d, t) ->
      Hashtbl.replace by_domain d (t :: Option.value (Hashtbl.find_opt by_domain d) ~default:[]))
    p.pl_polls;
  Hashtbl.fold
    (fun _ ts acc ->
      let ts = List.sort compare ts in
      let rec pairs acc = function
        | a :: (b :: _ as rest) ->
            let crosses = List.exists (fun r -> a < r && r < b) p.pl_rounds in
            pairs (if crosses then acc else (b -. a) :: acc) rest
        | _ -> acc
      in
      pairs acc ts)
    by_domain []
  |> Array.of_list

(* --- one search ---------------------------------------------------------- *)

type search_wl = {
  sw_network : string;
  sw_strategy : Strategy.t;
  sw_workers : int;
  sw_candidates : int;
  sw_nominal_s : float;  (* wall of one search on the reference host *)
}

type search_run = {
  sr_result : Unified_search.result;
  sr_model : Models.t;
  sr_probe : Train.batch;
  sr_ctx : Eval_ctx.t;
  sr_fo_seed : int;  (* the search's rebuild seed, for the replay *)
  sr_setup_s : float;  (* Models.build to the first stop poll *)
  sr_call_s : float;  (* the Unified_search.search call *)
  sr_latency_s : float;  (* Models.build to the search's answer *)
  sr_polls : polls;
}

(* A one-shot search exactly as `nas_pte search` threads its seed.
   [setup_only] stops at the first poll, so the run measures set-up only. *)
let run_search ?spans ?(obs = Obs.disabled) ?(setup_only = false) ?workers wl seed =
  let workers = Option.value workers ~default:wl.sw_workers in
  let p = polls () in
  let t0 = now () in
  let rng = Rng.create seed in
  let model = span spans ~layer:"nn" "build" (fun () -> Models.build (spec_of wl.sw_network) rng) in
  let probe =
    span spans ~layer:"data" "probe" (fun () ->
        Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size)
  in
  let ctx = Eval_ctx.create ~obs () in
  let search_rng = Rng.split rng in
  (* [Unified_search] draws its rebuild seed first; the replay checks this
     against the reference Fisher total. *)
  let fo_seed = Rng.int (Rng.copy search_rng) 1_000_000_000 in
  let t_call = now () in
  let r =
    Unified_search.search ~candidates:wl.sw_candidates ~workers
      ~schedule:Parallel_eval.Dynamic ~on_sched_stats:(on_sched p) ~strategy:wl.sw_strategy
      ~stop:(fun () ->
        poll p;
        setup_only)
      ~ctx ~rng:search_rng ~device ~probe model
  in
  let t_end = now () in
  let first_poll = List.fold_left (fun acc (_, t) -> Float.min acc t) infinity p.pl_polls in
  if not (Float.is_finite first_poll) then fail "search %d never polled its stop hook" seed;
  { sr_result = r; sr_model = model; sr_probe = probe; sr_ctx = ctx; sr_fo_seed = fo_seed;
    sr_setup_s = first_poll -. t0; sr_call_s = t_end -. t_call; sr_latency_s = t_end -. t0;
    sr_polls = p }

let signature (r : Unified_search.result) = Unified_search.plans_signature r.r_best.cd_plans

(* The winner re-costed by a fresh context must reproduce its latency bit
   for bit, and a full run must be complete. *)
let check_search seed sr =
  let r = sr.sr_result in
  if not r.Unified_search.r_complete then fail "search %d did not complete" seed;
  let ev =
    Pipeline.evaluate ~ctx:(Eval_ctx.create ()) device sr.sr_model ~plans:r.r_best.cd_plans
  in
  if not (same_float ev.Pipeline.ev_latency_s r.r_best.cd_latency_s) then
    fail "search %d: winner re-costs to %.17g s, search reported %.17g s" seed
      ev.Pipeline.ev_latency_s r.r_best.cd_latency_s

(* A parallel run must match the serial run of the same seed. *)
let check_same_as_serial seed (par : Unified_search.result) (ser : Unified_search.result) =
  let q r = List.map fst r.Unified_search.r_quarantined in
  if
    signature par <> signature ser
    || not (same_float par.r_best.cd_latency_s ser.r_best.cd_latency_s)
    || par.r_explored <> ser.r_explored || par.r_rejected <> ser.r_rejected
    || par.r_evaluated <> ser.r_evaluated || q par <> q ser
  then fail "search %d: the parallel result differs from the serial one" seed

let search_seed seed i = seed + (7919 * i)
let setup_repeats = 5

let searches_per_run wl seconds =
  max 1 (int_of_float (float_of_int seconds /. wl.sw_nominal_s))

(* --- search workloads, tracing off --------------------------------------- *)

let search_e2e wl ~seed ~seconds =
  (* Set-up only, several times on the same inputs: the median is steady. *)
  let setups =
    List.init setup_repeats (fun _ -> (run_search ~setup_only:true wl seed).sr_setup_s)
  in
  let runs =
    List.init (searches_per_run wl seconds) (fun i ->
        let s = search_seed seed i in
        let sr = run_search wl s in
        (s, sr))
  in
  List.iter (fun (s, sr) -> check_search s sr) runs;
  (* Outside the timed region: a parallel run must equal the serial one. *)
  (if wl.sw_workers > 1 then
     let s, sr = List.hd runs in
     let serial = run_search ~workers:1 wl s in
     check_same_as_serial s sr.sr_result serial.sr_result);
  let srs = Array.of_list (List.map snd runs) in
  let f g = Array.map g srs in
  let latencies = f (fun sr -> sr.sr_latency_s) in
  let cand = Array.concat (Array.to_list (f (fun sr -> candidate_times sr.sr_polls))) in
  let attempted = Array.fold_left (fun a sr -> a + sr.sr_result.Unified_search.r_explored) 0 srs in
  let failed =
    Array.fold_left (fun a sr -> a + List.length sr.sr_result.Unified_search.r_quarantined) 0 srs
  in
  log "%d searches, %d candidate times, setups %s" (Array.length srs) (Array.length cand)
    (String.concat " " (List.map (Printf.sprintf "%.3f") setups));
  ( attempted,
    failed,
    [ ("cand_per_s",
       median (f (fun sr -> float_of_int sr.sr_result.Unified_search.r_evaluated /. sr.sr_call_s)));
      ("cand_ms_p50", ms (median cand));
      ("speedup", median (f (fun sr -> Unified_search.speedup sr.sr_result)));
      ("setup_s", median (Array.of_list (setups @ Array.to_list (f (fun sr -> sr.sr_setup_s)))));
      ("req_per_s", float_of_int (Array.length srs) /. Array.fold_left ( +. ) 0.0 latencies);
      ("latency_ms_p50", ms (median latencies));
      ("latency_ms_p90", ms (p90 latencies)) ] )

(* --- shared traced-run helpers ------------------------------------------- *)

let counter obs name = Metrics.counter (Obs.metrics obs) name

let alloc_mb (a : Gc.stat) (b : Gc.stat) =
  (b.minor_words +. b.major_words -. b.promoted_words
  -. (a.minor_words +. a.major_words -. a.promoted_words))
  *. float_of_int (Sys.word_size / 8) /. 1e6

let time_warm_from src =
  median
    (Array.init 5 (fun _ ->
         let fresh = Eval_ctx.create () in
         let t = now () in
         ignore (Eval_ctx.warm_from fresh ~src);
         now () -. t))

(* Replay a seeded sample of candidates layer by layer through the public
   functions the search composes: the static check, [Models.rebuild],
   [Graph.forward], [Graph.backward], the per-site Fisher reduction and
   [Pipeline.evaluate_prepared].  The replayed totals must equal
   [Fisher.score] bit for bit, so the nn.* split describes the real
   computation; the reference network must reproduce the search's own
   baseline Fisher total. *)
let replay spans ~gen ~samples ~fo_seed ~baseline_fisher model probe =
  let sp ~layer name f = Spans.with_span spans ~layer name f in
  let prepared = Pipeline.prepare model in
  let ctx = Eval_ctx.create () in
  let fisher_of impls =
    let m = sp ~layer:"nn" "replay.rebuild" (fun () -> Models.rebuild model (Rng.create fo_seed) impls) in
    let g = m.Models.graph in
    let run, grad =
      sp ~layer:"nn" "replay.forward" (fun () ->
          Graph.zero_grads g;
          let run = Graph.forward g probe.Train.images in
          let _, grad = Ops.softmax_cross_entropy ~logits:(Graph.output run) ~labels:probe.labels in
          (run, grad))
    in
    sp ~layer:"nn" "replay.backward" (fun () -> Graph.backward g run ~loss_grad:grad);
    let per_site =
      sp ~layer:"fisher" "replay.reduce" (fun () ->
          let s =
            Array.map
              (fun id ->
                match Graph.activation_grad run id with
                | grad -> Fisher.layer_score ~activation:(Graph.activation run id) ~grad
                | exception Invalid_argument _ -> 0.0)
              m.Models.fisher_node_ids
          in
          Graph.zero_grads g;
          s)
    in
    let total = Array.fold_left ( +. ) 0.0 per_site in
    let direct = sp ~layer:"fisher" "replay.score" (fun () -> Fisher.score m probe) in
    if not (same_float total direct.Fisher.total && Array.for_all2 same_float per_site direct.per_site)
    then fail "replay: Fisher total %.17g differs from Fisher.score %.17g" total direct.total;
    total
  in
  let reference = fisher_of (Array.map (fun _ -> Conv_impl.Full) model.Models.sites) in
  if not (same_float reference baseline_fisher) then
    fail "replay: reference Fisher %.17g differs from the search's %.17g" reference
      baseline_fisher;
  let rng = Rng.create (fo_seed + 1) in
  let checked = ref [] in
  for _ = 1 to samples do
    let plans = gen rng model in
    let t = now () in
    let verdict = sp ~layer:"analysis" "replay.static_check" (fun () -> Static_check.candidate model plans) in
    checked := (now () -. t) :: !checked;
    match verdict with
    | Some _ -> ()
    | None ->
        ignore (fisher_of (Array.map (fun p -> p.Site_plan.sp_impl) plans));
        ignore
          (sp ~layer:"cost" "replay.evaluate" (fun () ->
               Pipeline.evaluate_prepared ~ctx device prepared ~plans))
  done;
  let d name = ms (median (Spans.durations spans name)) in
  [ ("analysis.check_us", 1e6 *. median (Array.of_list !checked));
    ("nn.rebuild_ms", d "replay.rebuild"); ("nn.forward_ms", d "replay.forward");
    ("nn.backward_ms", d "replay.backward") ]

(* Kernel rows: time [Ops.conv2d] and [Ops.conv2d_backward] on the conv
   shapes of the workload's own built models, read through [Graph.node]
   with the input extents of one forward pass on the probe batch.  A
   class the models do not contain reads 0. *)
let kernel_rows spans models probe =
  Spans.with_span spans ~layer:"tensor" "kernels" @@ fun () ->
  let shapes = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let g = m.Models.graph in
      let run = Graph.forward g probe.Train.images in
      for i = 0 to Graph.node_count g - 1 do
        match Graph.node g i with
        | { Graph.op = Graph.Conv cv; inputs = [ src ]; _ } ->
            let ishape = Tensor.shape (Graph.activation run src) in
            let wshape = Tensor.shape cv.Layer.cv_w.Layer.p_value in
            let cls =
              if cv.cv_groups = 1 && wshape.(2) = 3 && wshape.(3) = 3 then Some "dense3x3"
              else if cv.cv_groups > 1 && cv.cv_groups = ishape.(1) then Some "depthwise"
              else None
            in
            Option.iter
              (fun cls ->
                let p =
                  { Ops.stride = cv.cv_stride; pad = cv.cv_pad; groups = cv.cv_groups;
                    dilation = cv.cv_dilation }
                in
                Hashtbl.replace shapes (cls, ishape, wshape, p) ())
              cls
        | _ -> ()
      done)
    models;
  let rng = Rng.create 1 in
  let rand shape = Tensor.init shape (fun _ -> Rng.gauss rng) in
  (* Per class: summed median call time over summed MACs. *)
  let acc = Hashtbl.create 4 in
  Hashtbl.iter
    (fun (cls, ishape, wshape, p) () ->
      let input = rand ishape and weight = rand wshape in
      let out = Ops.conv2d ~input ~weight ~bias:None p in
      let oshape = Tensor.shape out in
      let macs =
        float_of_int (oshape.(0) * oshape.(1) * oshape.(2) * oshape.(3) * wshape.(1) * wshape.(2) * wshape.(3))
      in
      let gout = rand oshape in
      let time f =
        f ();
        let reps = max 1 (int_of_float (0.002 /. Float.max 1e-7 (snd (Timing.time f)))) in
        median
          (Array.init 5 (fun _ ->
               let t = now () in
               for _ = 1 to reps do
                 f ()
               done;
               (now () -. t) /. float_of_int reps))
      in
      let fwd = time (fun () -> ignore (Ops.conv2d ~input ~weight ~bias:None p)) in
      let bwd = time (fun () -> ignore (Ops.conv2d_backward ~input ~weight ~gout p)) in
      let f0, b0, m0 = Option.value (Hashtbl.find_opt acc cls) ~default:(0.0, 0.0, 0.0) in
      Hashtbl.replace acc cls (f0 +. fwd, b0 +. bwd, m0 +. macs))
    shapes;
  List.concat_map
    (fun cls ->
      match Hashtbl.find_opt acc cls with
      | Some (f, b, m) ->
          [ ("tensor.conv_fwd_ns_per_mac." ^ cls, 1e9 *. f /. m);
            ("tensor.conv_bwd_ns_per_mac." ^ cls, 1e9 *. b /. m) ]
      | None -> [])
    [ "dense3x3"; "depthwise" ]

let attribution spans ~t0 ~t1 =
  let a = Spans.attribute spans ~t0 ~t1 in
  List.iter
    (fun (layer, _) -> if not (List.mem layer layers) then fail "span of unknown layer %s" layer)
    a.at_layers;
  log "traced wall %.3f s = %s + unattributed %.3f s" a.at_wall_s
    (String.concat " + " (List.map (fun (l, s) -> Printf.sprintf "%s %.3f" l s) a.at_layers))
    a.at_unattributed_s;
  ("trace.wall_ms", ms a.at_wall_s)
  :: ("trace.unattributed_ms", ms a.at_unattributed_s)
  :: List.map (fun (l, s) -> ("selftime." ^ l ^ "_ms", ms s)) a.at_layers

let search_counters obs =
  List.filter
    (fun (k, _) -> String.length k > 7 && String.sub k 0 7 = "search.")
    (Metrics.counters (Obs.metrics obs))

(* --- search workloads, traced -------------------------------------------- *)

let search_traced wl ~name ~seed ~gen =
  let spans = Spans.create () in
  let obs = Obs.create () in
  let t0 = now () in
  let g0 = Gc.quick_stat () in
  let sr = run_search ~spans ~obs wl seed in
  let g1 = Gc.quick_stat () in
  Spans.add_obs_events spans ~parent:(-1) (Obs.events obs);
  check_search seed sr;
  let r = sr.sr_result in
  let warm_s = Spans.with_span spans ~layer:"engine" "warm_from" (fun () -> time_warm_from sr.sr_ctx) in
  let replayed =
    replay spans ~gen ~samples:6 ~fo_seed:sr.sr_fo_seed ~baseline_fisher:r.r_baseline_fisher
      sr.sr_model sr.sr_probe
  in
  let winner =
    Models.rebuild sr.sr_model (Rng.create sr.sr_fo_seed)
      (Array.map (fun p -> p.Site_plan.sp_impl) r.r_best.cd_plans)
  in
  let kernels = kernel_rows spans [ sr.sr_model; winner ] sr.sr_probe in
  let t1 = now () in
  (* Untraced twin of the traced search: the ratio is the tracing cost. *)
  let plain = run_search wl seed in
  if signature plain.sr_result <> signature r then fail "traced and untraced winners differ";
  (* A parallel run's search.* counters must match the serial run's. *)
  (if wl.sw_workers > 1 then
     let sobs = Obs.create () in
     let serial = run_search ~obs:sobs ~workers:1 wl seed in
     check_same_as_serial seed r serial.sr_result;
     if search_counters obs <> search_counters sobs then
       fail "search %d: search.* counters differ between the parallel and serial runs" seed);
  let evaluated = float_of_int (max 1 r.r_evaluated) in
  let cost = Spans.durations spans "cost" in
  let sched = sr.sr_polls.pl_sched in
  let engine =
    match sched with
    | [] -> []
    | _ ->
        let nw = List.fold_left (fun a s -> max a s.Parallel_eval.rs_workers) 0 sched in
        let busy = Array.make nw 0.0 and wall = ref 0.0 and steals = ref 0 in
        List.iter
          (fun (s : Parallel_eval.run_stats) ->
            wall := !wall +. s.rs_wall_s;
            Array.iteri
              (fun i (w : Parallel_eval.worker_stat) ->
                busy.(i) <- busy.(i) +. w.ws_busy_s;
                steals := !steals + w.ws_steals)
              s.rs_worker)
          sched;
        [ ("engine.worker_util_min", Array.fold_left Float.min 1.0 (Array.map (fun b -> b /. !wall) busy));
          ("engine.steals", float_of_int !steals) ]
  in
  let metrics =
    [ ("search.generate_ms", ms (median (Spans.durations spans "generate")));
      ("search.survivor_fraction",
       float_of_int (counter obs "search.cost_ranked") /. float_of_int (counter obs "search.generated"));
      ("fisher.ms_p50", ms (median (Spans.durations spans "fisher")));
      ("fisher.evals", float_of_int (counter obs "cache.fisher.misses"));
      ("fisher.memo_hits", float_of_int (counter obs "cache.fisher.hits"));
      ("gc.alloc_mb_per_cand", alloc_mb g0 g1 /. evaluated);
      ("gc.major_per_cand", float_of_int (g1.major_collections - g0.major_collections) /. evaluated);
      ("cost.evals", float_of_int (counter obs "pipeline.cost_evals"));
      ("cost.tune_configs", float_of_int (counter obs "engine.tune_configs"));
      ("cost.ms_per_ranked", ms (Array.fold_left ( +. ) 0.0 cost /. float_of_int (max 1 (Array.length cost))));
      ("engine.warm_from_ms", ms warm_s);
      ("obs.trace_overhead", sr.sr_call_s /. plain.sr_call_s) ]
    @ engine @ replayed @ kernels @ attribution spans ~t0 ~t1
  in
  Spans.write spans (Printf.sprintf ".perfbench/spans-%s-%d.jsonl" name seed);
  (r.r_explored, List.length r.r_quarantined, metrics)

(* --- serve workload ------------------------------------------------------ *)

let serve_network = "mobilenet_small"
let serve_candidates = 6
let serve_clients = 2
let serve_repeats = 3  (* asks per seed after the cold one *)
let serve_nominal_cycle_s = 2.0  (* one client's cold ask + repeats, reference host *)

let serve_config ?trace_dir () =
  { Server.default_config with
    cf_workers = 2;
    cf_max_queue = 16;
    cf_trace_dir = trace_dir;
    cf_strategy = Strategy.Guided }

let serve_request ?(candidates = serve_candidates) ~id ~seed () =
  Protocol.request ~network:serve_network ~candidates ~seed ~workers:1
    ~strategy:Strategy.Guided id

(* Set-up: boot the server and get the reply to one fixed warm-up request.
   Its seed lies outside every client's seed range (see [serve_loop]), so
   it warms no measured request. *)
let serve_setup ?trace_dir () =
  let t0 = now () in
  let srv = Server.create ~config:(serve_config ?trace_dir ()) () in
  (match Server.submit srv (serve_request ~candidates:2 ~id:"warmup" ~seed:999 ()) with
  | Protocol.Result _ -> ()
  | _ -> fail "the warm-up request was not answered ok");
  (srv, now () -. t0)

type answer = {
  an_id : string;
  an_seed : int;
  an_rep : int;  (* 0 = the seed's cold ask *)
  an_submit : float;
  an_reply : float;
  an_resp : Protocol.response;
}

(* Closed loop: each client sends its next request when the previous one
   is answered.  Client [c] asks seed [k] once cold, then [serve_repeats]
   more times, for [cycles] seeds of its own, so exactly a quarter of the
   requests miss the Fisher cache whatever the timing. *)
let serve_loop srv ~seed ~cycles =
  let lock = Mutex.create () and cond = Condition.create () in
  let inbox = Queue.create () in
  let seed_of c k = (seed * 1000) + (k * serve_clients) + c in
  let submit c k rep =
    let id = Printf.sprintf "c%d-s%d-r%d" c k rep in
    let s = seed_of c k in
    let t = now () in
    Server.submit_async srv (serve_request ~id ~seed:s ()) ~reply:(fun resp ->
        let t' = now () in
        Mutex.lock lock;
        Queue.push
          (c, k, { an_id = id; an_seed = s; an_rep = rep; an_submit = t; an_reply = t'; an_resp = resp })
          inbox;
        Condition.signal cond;
        Mutex.unlock lock)
  in
  let answers = ref [] in
  for c = 0 to serve_clients - 1 do
    submit c 0 0
  done;
  let running = ref serve_clients in
  while !running > 0 do
    Mutex.lock lock;
    while Queue.is_empty inbox do
      Condition.wait cond lock
    done;
    let c, k, a = Queue.pop inbox in
    Mutex.unlock lock;
    answers := a :: !answers;
    if a.an_rep < serve_repeats then submit c k (a.an_rep + 1)
    else if k + 1 < cycles then submit c (k + 1) 0
    else decr running
  done;
  List.rev !answers

let ok_payload a =
  match a.an_resp with
  | Protocol.Result r -> Some r
  | _ -> None

(* Every answer ok and complete; every repeat equal to its seed's cold
   answer; one sampled seed equal to the one-shot search. *)
let check_serve ?spans ?obs answers =
  let first = Hashtbl.create 64 in
  List.iter
    (fun a ->
      match ok_payload a with
      | None -> fail "request %s was not answered ok: %s" a.an_id (Protocol.response_to_json a.an_resp)
      | Some r ->
          if r.Protocol.rs_degraded || not r.rs_complete then fail "request %s incomplete" a.an_id;
          let key = r.rs_best_plan, r.rs_best_latency_us, r.rs_speedup, r.rs_explored, r.rs_rejected,
                    r.rs_quarantined, r.rs_evaluated in
          match Hashtbl.find_opt first a.an_seed with
          | None -> Hashtbl.replace first a.an_seed key
          | Some k -> if k <> key then fail "request %s differs from its seed's first answer" a.an_id)
    answers;
  let a = List.hd answers in
  let r = Option.get (ok_payload a) in
  let wl =
    { sw_network = serve_network; sw_strategy = Strategy.Guided; sw_workers = 1;
      sw_candidates = serve_candidates; sw_nominal_s = 1.0 }
  in
  let sr = run_search ?spans ?obs wl a.an_seed in
  let d = sr.sr_result in
  if
    signature d <> r.Protocol.rs_best_plan
    || not (same_float (1e6 *. d.r_best.cd_latency_s) r.rs_best_latency_us)
    || not (same_float (Unified_search.speedup d) r.rs_speedup)
  then fail "served seed %d differs from the one-shot search" a.an_seed;
  sr

(* At least 13 cycles: 104 requests leave ten latencies beyond p90. *)
let serve_cycles seconds =
  max 13 (int_of_float (float_of_int seconds /. serve_nominal_cycle_s))

let serve_stats answers =
  let payloads = List.filter_map ok_payload answers in
  let lat = Array.of_list (List.map (fun a -> a.an_reply -. a.an_submit) answers) in
  let t_first = List.fold_left (fun m a -> Float.min m a.an_submit) infinity answers in
  let t_last = List.fold_left (fun m a -> Float.max m a.an_reply) neg_infinity answers in
  (payloads, lat, t_last -. t_first)

let serve_e2e ~seed ~seconds =
  let setups =
    List.init (setup_repeats - 1) (fun _ ->
        let srv, s = serve_setup () in
        ignore (Server.shutdown srv);
        s)
  in
  let srv, s_last = serve_setup () in
  let answers = serve_loop srv ~seed ~cycles:(serve_cycles seconds) in
  ignore (Server.shutdown srv);
  ignore (check_serve answers);
  let payloads, lat, window = serve_stats answers in
  let n = Array.length lat in
  log "%d requests (%d beyond p90), window %.2f s" n (n - int_of_float (0.9 *. float_of_int n) - 1) window;
  let evaluated = List.fold_left (fun a r -> a + r.Protocol.rs_evaluated) 0 payloads in
  ( List.length answers,
    List.length answers - List.length payloads,
    [ ("cand_per_s", float_of_int evaluated /. window);
      ("cand_ms_p50",
       median (Array.of_list (List.map (fun r -> r.Protocol.rs_wall_ms /. float_of_int (max 1 r.rs_evaluated)) payloads)));
      ("speedup", median (Array.of_list (List.map (fun r -> r.Protocol.rs_speedup) payloads)));
      ("setup_s", median (Array.of_list (s_last :: setups)));
      ("req_per_s", float_of_int (List.length payloads) /. window);
      ("latency_ms_p50", ms (median lat));
      ("latency_ms_p90", ms (p90 lat)) ] )

let read_events path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
        match Obs_event.of_json line with
        | Some e -> go (e :: acc)
        | None -> fail "unparsable trace line in %s: %s" path line)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let serve_traced ~name ~seed ~seconds =
  let dir = Printf.sprintf ".perfbench/sessions-%s-%d" name seed in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  let cycles = serve_cycles seconds in
  let spans = Spans.create () in
  let srv, _ = serve_setup ~trace_dir:dir () in
  let t0 = now () in
  let g0 = Gc.quick_stat () in
  let answers = serve_loop srv ~seed ~cycles in
  let g1 = Gc.quick_stat () in
  let t_served = now () in
  (* Fisher times of the cold asks: a repeat's Fisher spans are memo hits. *)
  let cold_fisher = ref [] in
  List.iter
    (fun a ->
      let parent =
        Spans.record spans ~parent:(-1) ~layer:"serve" ~name:"request" ~start:a.an_submit
          ~stop:a.an_reply
      in
      let events = read_events (Filename.concat dir (a.an_id ^ ".jsonl")) in
      Spans.add_obs_events spans ~parent events;
      if a.an_rep = 0 then
        List.iter
          (fun (e : Obs_event.t) ->
            match e.e_kind, e.e_dur_s with
            | Obs_event.Span_end, Some d when e.e_name = "fisher" -> cold_fisher := d :: !cold_fisher
            | _ -> ())
          events)
    answers;
  let shared = Server.shared_ctx srv in
  let warm_s = Spans.with_span spans ~layer:"engine" "warm_from" (fun () -> time_warm_from shared) in
  let st = Server.shutdown srv in
  let sobs = Obs.create () in
  let one_shot = check_serve ~spans ~obs:sobs answers in
  Spans.add_obs_events spans ~parent:(-1) (Obs.events sobs);
  let payloads, lat, _ = serve_stats answers in
  let n = float_of_int (List.length payloads) in
  (* Replay and kernel rows on the sampled seed's one-shot search. *)
  let replayed =
    replay spans ~gen:Strategy.typed_plans ~samples:6 ~fo_seed:one_shot.sr_fo_seed
      ~baseline_fisher:one_shot.sr_result.r_baseline_fisher one_shot.sr_model one_shot.sr_probe
  in
  let kernels = kernel_rows spans [ one_shot.sr_model ] one_shot.sr_probe in
  let t1 = now () in
  (* Untraced twin of the served load: the ratio is the tracing cost. *)
  let plain_srv, _ = serve_setup () in
  let _, _, plain_window = serve_stats (serve_loop plain_srv ~seed ~cycles) in
  ignore (Server.shutdown plain_srv);
  let sessions = st.Server.st_session_times_s in
  (* The last sessions are the measured ones; the first was the warm-up. *)
  let measured = Array.sub sessions (Array.length sessions - List.length answers) (List.length answers) in
  let sum = Array.fold_left ( +. ) 0.0 in
  let cost = Spans.durations spans "cost" in
  let explored = List.fold_left (fun a r -> a + r.Protocol.rs_explored) 0 payloads in
  let ranked =
    List.fold_left (fun a r -> a + r.Protocol.rs_explored - r.rs_rejected - r.rs_quarantined) 0 payloads
  in
  let evaluated = float_of_int (List.fold_left (fun a r -> a + r.Protocol.rs_evaluated) 0 payloads) in
  let metrics =
    [ ("search.generate_ms", ms (median (Spans.durations spans "generate")));
      ("search.survivor_fraction", float_of_int ranked /. float_of_int explored);
      ("fisher.ms_p50", ms (median (Array.of_list !cold_fisher)));
      ("fisher.evals", float_of_int st.st_fisher.Bounded_cache.cs_misses);
      ("fisher.memo_hits", float_of_int st.st_fisher.Bounded_cache.cs_hits);
      ("gc.alloc_mb_per_cand", alloc_mb g0 g1 /. evaluated);
      ("gc.major_per_cand", float_of_int (g1.major_collections - g0.major_collections) /. evaluated);
      ("cost.evals", float_of_int st.st_cost.Bounded_cache.cs_misses);
      ("cost.tune_configs", float_of_int (Eval_ctx.tune_configs shared));
      ("cost.ms_per_ranked", ms (sum cost /. float_of_int (max 1 (Array.length cost))));
      ("engine.warm_from_ms", ms warm_s);
      ("serve.session_ms_p50", ms (median measured));
      ("serve.overhead_ms_p50",
       median
         (Array.of_list
            (List.map
               (fun a ->
                 ms (a.an_reply -. a.an_submit) -. (Option.get (ok_payload a)).Protocol.rs_wall_ms)
               answers)));
      ("serve.queue_wait_ms", ms ((sum lat -. sum measured) /. n));
      ("serve.fisher_hits_per_req", float_of_int st.st_fisher.Bounded_cache.cs_hits /. n);
      ("obs.trace_overhead", (t_served -. t0) /. plain_window) ]
    @ replayed @ kernels
    @ attribution spans ~t0 ~t1
  in
  Spans.write spans (Printf.sprintf ".perfbench/spans-%s-%d.jsonl" name seed);
  (List.length answers, 0, metrics)

(* --- entry point --------------------------------------------------------- *)

let resnet18_random =
  { sw_network = "resnet18"; sw_strategy = Strategy.Random; sw_workers = 1; sw_candidates = 60;
    sw_nominal_s = 14.0 }

let mobilenet_guided_w2 =
  { sw_network = "mobilenet_small"; sw_strategy = Strategy.Guided; sw_workers = 2;
    sw_candidates = 60; sw_nominal_s = 6.0 }

let random_gen rng model = Unified_search.random_plans rng model ~mutate_prob:0.5

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 20 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 7)");
      ("--seconds", Arg.Set_int seconds, "S run length the work is sized for (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)") ]
    (fun a -> fail "unexpected argument %s" a)
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !seconds < 1 then fail "--seconds must be positive";
  let traced = match !trace with 0 -> false | 1 -> true | _ -> fail "--trace must be 0 or 1" in
  if traced && not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  let seed = !seed and seconds = !seconds in
  let attempted, failed, metrics =
    match !workload, traced with
    | "search-resnet18-random", false -> search_e2e resnet18_random ~seed ~seconds
    | ("search-resnet18-random" as name), true ->
        search_traced resnet18_random ~name ~seed ~gen:random_gen
    | "search-mobilenet_small-guided-w2", false -> search_e2e mobilenet_guided_w2 ~seed ~seconds
    | ("search-mobilenet_small-guided-w2" as name), true ->
        search_traced mobilenet_guided_w2 ~name ~seed ~gen:Strategy.typed_plans
    | "serve-mobilenet_small-repeat-closed", false -> serve_e2e ~seed ~seconds
    | ("serve-mobilenet_small-repeat-closed" as name), true -> serve_traced ~name ~seed ~seconds
    | w, _ -> fail "unknown workload %S" w
  in
  emit ~attempted ~failed ~trace:traced metrics
