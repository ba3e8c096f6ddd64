(* Hardware-model tests: device sanity, cost-model monotonicity and
   directional behaviour, cache simulator mechanics, and autotuner
   improvement. *)

let nest ?(co = 32) ?(ci = 32) ?(hw = 16) ?(k = 3) ?(stride = 1) ?(groups = 1) () =
  Loop_nest.conv_nest_of_dims ~co ~ci ~oh:hw ~ow:hw ~k ~stride ~groups

let t_devices_listed () =
  Alcotest.(check int) "four platforms" 4 (List.length Device.all);
  Alcotest.(check bool) "lookup by short name" true (Device.by_name "mGPU" <> None);
  Alcotest.(check bool) "unknown" true (Device.by_name "TPU" = None)

let t_peak_ordering () =
  (* Server GPU > server CPU > mobile GPU > mobile CPU in peak compute. *)
  let p d = Device.peak_gflops d in
  Alcotest.(check bool) "GPU fastest" true (p Device.gtx1080ti > p Device.i7);
  Alcotest.(check bool) "i7 > mGPU is false (mGPU raw flops close)" true
    (p Device.i7 > p Device.arm_a57);
  Alcotest.(check bool) "mCPU slowest" true
    (p Device.arm_a57 < p Device.maxwell_mgpu)

let t_cost_positive_and_finite () =
  List.iter
    (fun dev ->
      let n = nest () in
      let b = Cost_model.estimate dev n (Loop_nest.baseline_schedule n) in
      Alcotest.(check bool) (dev.Device.short_name ^ " finite") true
        (Float.is_finite b.Cost_model.total_s && b.total_s > 0.0);
      Alcotest.(check bool) "components" true
        (b.compute_s >= 0.0 && b.memory_s >= 0.0 && b.overhead_s > 0.0))
    Device.all

let t_more_work_costs_more () =
  let small = nest ~co:16 ~ci:16 () and big = nest ~co:64 ~ci:64 () in
  List.iter
    (fun dev ->
      let c n = Cost_model.estimate_s dev n (Loop_nest.baseline_schedule n) in
      Alcotest.(check bool) (dev.Device.short_name ^ " monotone") true
        (c big > c small))
    Device.all

let t_grouping_reduces_cost () =
  let n = nest ~co:64 ~ci:64 ~hw:32 () in
  List.iter
    (fun dev ->
      let base = Loop_nest.baseline_schedule n in
      let _, tvm = Autotune.tune dev n in
      let grouped = Poly.group base ~co:"co" ~ci:"ci" ~factor:4 in
      let _, grp = Autotune.tune ~base:grouped dev n in
      Alcotest.(check bool)
        (dev.Device.short_name ^ " grouping helps")
        true
        (grp.Cost_model.total_s < tvm.Cost_model.total_s))
    Device.all

let t_vectorization_helps_cpu () =
  let n = nest () in
  let base = Loop_nest.baseline_schedule n in
  let plain = Cost_model.estimate Device.i7 n base in
  let vec = Poly.vectorize base ~pos:(Poly.loop_count base - 1) in
  (* vectorizing kw (innermost) gives some gain *)
  let v = Cost_model.estimate Device.i7 n vec in
  Alcotest.(check bool) "vector eff greater" true
    (v.Cost_model.vector_eff >= plain.Cost_model.vector_eff)

let t_gpu_unmapped_is_slow () =
  let n = nest () in
  let base = Loop_nest.baseline_schedule n in
  let unmapped = Cost_model.estimate Device.gtx1080ti n base in
  let mapped, _ = Autotune.tune Device.gtx1080ti n in
  let m = Cost_model.estimate Device.gtx1080ti n mapped in
  Alcotest.(check bool) "mapping essential" true
    (m.Cost_model.total_s < unmapped.Cost_model.total_s)

let t_tuning_never_hurts () =
  List.iter
    (fun dev ->
      let n = nest ~co:64 ~ci:64 ~hw:8 () in
      let default = Autotune.default_schedule dev n in
      let d = Cost_model.estimate_s dev n default in
      let _, tuned = Autotune.tune dev n in
      Alcotest.(check bool)
        (dev.Device.short_name ^ " tuned <= default")
        true
        (tuned.Cost_model.total_s <= d +. 1e-12))
    Device.all

let t_hints_change_schedule () =
  let n = nest ~hw:16 () in
  let hints = { Autotune.h_unroll_co = Some 16; h_spatial_split = Some 2 } in
  let s, _ = Autotune.tune ~hints Device.i7 n in
  (* The unroll hint must survive into the tuned schedule. *)
  let has_unroll = List.exists (fun (l : Poly.loop) -> l.Poly.unroll > 1) s.Poly.loops in
  Alcotest.(check bool) "unroll present" true has_unroll

(* --- Cache simulator --------------------------------------------------- *)

let small_cache = { Device.c_size = 256; c_line = 64; c_assoc = 2 }

let t_cache_hit_after_miss () =
  let c = Cache_sim.create small_cache in
  Alcotest.(check bool) "first access misses" false (Cache_sim.access c 0);
  Alcotest.(check bool) "second hits" true (Cache_sim.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache_sim.access c 32)

let t_cache_capacity_eviction () =
  let c = Cache_sim.create small_cache in
  (* 4 lines total; touch 8 distinct lines then re-touch the first. *)
  for i = 0 to 7 do
    ignore (Cache_sim.access c (i * 64))
  done;
  Alcotest.(check bool) "evicted" false (Cache_sim.access c 0)

let t_cache_lru () =
  (* Associativity-2, one set when size=128,line=64. *)
  let c = Cache_sim.create { Device.c_size = 128; c_line = 64; c_assoc = 2 } in
  ignore (Cache_sim.access c 0);
  ignore (Cache_sim.access c 64);
  ignore (Cache_sim.access c 0);
  (* 64 is now LRU; inserting 128 evicts it. *)
  ignore (Cache_sim.access c 128);
  Alcotest.(check bool) "0 kept (MRU)" true (Cache_sim.access c 0);
  Alcotest.(check bool) "64 evicted" false (Cache_sim.access c 64)

let t_cache_program_counts () =
  let n = nest ~co:4 ~ci:4 ~hw:4 () in
  let prog = Loop_nest.lower n (Loop_nest.baseline_schedule n) in
  let stats = Cache_sim.simulate_program small_cache prog in
  Alcotest.(check int) "3 accesses per MAC"
    (3 * Poly.points prog.Loop_nest.schedule)
    stats.Cache_sim.accesses;
  Alcotest.(check bool) "some misses" true (stats.Cache_sim.misses > 0);
  Alcotest.(check bool) "miss rate sane" true (Cache_sim.miss_rate stats <= 1.0)

let t_locality_schedule_fewer_misses () =
  (* A schedule with kw innermost (weight reuse) vs kw outermost. *)
  let n = nest ~co:8 ~ci:8 ~hw:8 () in
  let good = Loop_nest.baseline_schedule n in
  let bad = Poly.reorder good [| 5; 4; 3; 2; 1; 0 |] in
  let cache = { Device.c_size = 1024; c_line = 64; c_assoc = 4 } in
  let m s = (Cache_sim.simulate_program cache (Loop_nest.lower n s)).Cache_sim.misses in
  Alcotest.(check bool) "canonical order has fewer misses" true (m good < m bad)

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"cost estimates are deterministic" ~count:20
      (pair (int_range 8 64) (int_range 4 16))
      (fun (c, hw) ->
        let c = c / 4 * 4 and hw = hw / 2 * 2 in
        let c = max 4 c and hw = max 4 hw in
        let n = nest ~co:c ~ci:c ~hw () in
        let s = Autotune.default_schedule Device.i7 n in
        Cost_model.estimate_s Device.i7 n s = Cost_model.estimate_s Device.i7 n s);
    Test.make ~name:"dram traffic bounded below by compulsory misses" ~count:20
      (int_range 4 16)
      (fun hw ->
        let hw = max 4 (hw / 2 * 2) in
        let n = nest ~co:8 ~ci:8 ~hw () in
        let s = Loop_nest.baseline_schedule n in
        let traffic = Cost_model.dram_traffic Device.i7 n s in
        (* At least the output must be written. *)
        traffic >= float_of_int (8 * hw * hw * 4)) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "hw"
    [ ( "devices",
        [ quick "four platforms" t_devices_listed; quick "peak ordering" t_peak_ordering ] );
      ( "cost model",
        [ quick "positive and finite" t_cost_positive_and_finite;
          quick "monotone in work" t_more_work_costs_more;
          quick "grouping reduces cost" t_grouping_reduces_cost;
          quick "vectorization" t_vectorization_helps_cpu;
          quick "gpu mapping essential" t_gpu_unmapped_is_slow ] );
      ( "autotuner",
        [ quick "tuned beats default" t_tuning_never_hurts;
          quick "hints survive" t_hints_change_schedule ] );
      ( "cache sim",
        [ quick "hit after miss" t_cache_hit_after_miss;
          quick "capacity eviction" t_cache_capacity_eviction;
          quick "lru" t_cache_lru;
          quick "program trace" t_cache_program_counts;
          quick "locality ordering" t_locality_schedule_fewer_misses ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
