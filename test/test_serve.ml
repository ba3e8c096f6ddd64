(* Serving-layer tests: the wire protocol codec, the resilience
   primitives (deadlines, retry, admission, breaker), crash-safe shared
   caches, cooperative search cancellation, and the server itself —
   concurrent sessions bit-identical to the one-shot CLI, admission
   rejection under overload, deadline expiry, deterministic retry of
   injected transients, breaker trips, and cold-start fallback from a
   corrupted cache snapshot. *)

let setup () =
  let rng = Rng.create 77 in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  (rng, model, probe)

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

(* --- protocol ----------------------------------------------------------- *)

let t_request_roundtrip () =
  let rq =
    Protocol.request ~network:"resnet34" ~device:"GPU" ~candidates:17 ~seed:9
      ~mutate_prob:0.25 ~budget:12 ~deadline_ms:250.0 ~fault_rate:0.5
      ~fault_seed:3 ~workers:2 "req-1"
  in
  match Protocol.parse (Protocol.request_to_json rq) with
  | Ok (Protocol.Search rq') ->
      Alcotest.(check bool) "roundtrip preserves every field" true (rq = rq')
  | Ok _ -> Alcotest.fail "parsed as a control message"
  | Error e -> Alcotest.fail e

let t_request_defaults () =
  match Protocol.parse {|{"op":"search","id":"d"}|} with
  | Ok (Protocol.Search rq) ->
      let job = rq.Protocol.rq_job in
      Alcotest.(check string) "network" "resnet18" job.Job.jb_network;
      Alcotest.(check string) "device" "CPU" job.jb_device;
      Alcotest.(check int) "seed" 42 job.jb_seed;
      Alcotest.(check bool) "no deadline" true (rq.Protocol.rq_deadline_ms = None)
  | _ -> Alcotest.fail "defaults did not parse"

let t_parse_rejects () =
  let bad s =
    match Protocol.parse s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "garbage" true (bad "ceci n'est pas du json");
  Alcotest.(check bool) "nested value" true (bad {|{"id":"x","meta":{"a":1}}|});
  Alcotest.(check bool) "trailing junk" true (bad {|{"op":"search","id":"x"} extra|});
  Alcotest.(check bool) "fault_rate out of range" true
    (bad {|{"op":"search","id":"x","fault_rate":1.5}|});
  Alcotest.(check bool) "non-positive deadline" true
    (bad {|{"op":"search","id":"x","deadline_ms":0}|});
  Alcotest.(check bool) "zero candidates" true
    (bad {|{"op":"search","id":"x","candidates":0}|});
  Alcotest.(check bool) "unknown op" true (bad {|{"op":"dance"}|});
  (* A line without an explicit op must never default into a search. *)
  Alcotest.(check bool) "empty object" true (bad "{}");
  Alcotest.(check bool) "missing op" true (bad {|{"id":"x"}|});
  Alcotest.(check bool) "typo'd op key" true (bad {|{"opp":"ping"}|});
  Alcotest.(check bool) "unrecognized search field" true
    (bad {|{"op":"search","id":"x","candidats":5}|})

let t_parse_ops () =
  let op s v = Protocol.parse s = Ok v in
  Alcotest.(check bool) "ping" true (op {|{"op":"ping"}|} Protocol.Ping);
  Alcotest.(check bool) "stats" true (op {|{"op":"stats"}|} Protocol.Stats);
  Alcotest.(check bool) "shutdown" true (op {|{"op":"shutdown"}|} Protocol.Shutdown)

let t_response_roundtrip () =
  let payload =
    { Protocol.rs_id = "r"; rs_best_plan = "a;b"; rs_best_latency_us = 12.5;
      rs_baseline_latency_us = 50.0; rs_speedup = 4.0; rs_explored = 10;
      rs_rejected = 3; rs_quarantined = 1; rs_evaluated = 9; rs_complete = false;
      rs_degraded = true; rs_retries = 2; rs_cache_hits = 7; rs_wall_ms = 3.25 }
  in
  let cases =
    [ Protocol.Result payload;
      Protocol.Overloaded { ov_id = "r"; ov_retry_after_ms = 125.0 };
      Protocol.Unavailable
        { un_id = "r"; un_reason = "breaker_open"; un_retry_after_ms = 50.0 };
      Protocol.Error_resp
        { er_id = "r"; er_class = "timed-out"; er_message = "late \"quoted\"" };
      Protocol.Pong;
      Protocol.Stats_resp [ ("admitted", 3.0); ("rejected", 1.0) ] ]
  in
  List.iter
    (fun resp ->
      match Protocol.response_of_json (Protocol.response_to_json resp) with
      | Ok resp' -> Alcotest.(check bool) "response roundtrip" true (resp = resp')
      | Error e -> Alcotest.fail e)
    cases

(* --- wire-protocol properties ------------------------------------------- *)

(* Generators over the codecs' lossless domain: strings are arbitrary
   bytes, integers stay below 2^53 (numbers travel as JSON floats) and
   protocol floats carry at most the six significant digits the protocol
   rounds values to.  [Obs_event] numbers are written by [Json] in the
   shortest form that reads back to the same bits, so its floats are any
   finite bit pattern. *)
let gen_bytes = QCheck.Gen.(string_size ~gen:char (int_range 0 24))
let gen_int = QCheck.Gen.int_range (-1_000_000_000) 1_000_000_000
let gen_hundredths lo hi =
  QCheck.Gen.(map (fun k -> float_of_int k /. 100.0) (int_range lo hi))

let gen_request =
  let open QCheck.Gen in
  let* id = gen_bytes in
  let* network = oneofl Zoo.names in
  let* device = gen_bytes in
  let* candidates = int_range 1 100_000 in
  let* seed = gen_int in
  let* mutate_prob = opt (gen_hundredths 0 100) in
  let* budget = opt (int_range 1 100_000) in
  let* deadline_ms = opt (gen_hundredths 1 99_999) in
  let* fault_rate = gen_hundredths 0 100 in
  let* fault_seed = opt gen_int in
  let* workers = int_range 1 64 in
  let+ strategy = opt (oneofl [ Strategy.Random; Strategy.Typed; Strategy.Guided ]) in
  Protocol.request ~network ~device ~candidates ~seed ?mutate_prob ?budget ?deadline_ms
    ~fault_rate ?fault_seed ~workers ?strategy id

let gen_response =
  let open QCheck.Gen in
  let num = gen_hundredths (-99_999) 99_999 in
  let count = int_range 0 1_000_000 in
  let result =
    let* rs_id = gen_bytes in
    let* rs_best_plan = gen_bytes in
    let* rs_best_latency_us = num in
    let* rs_baseline_latency_us = num in
    let* rs_speedup = num in
    let* rs_explored = count in
    let* rs_rejected = count in
    let* rs_quarantined = count in
    let* rs_evaluated = count in
    let* rs_complete = bool in
    let* rs_degraded = bool in
    let* rs_retries = count in
    let* rs_cache_hits = count in
    let+ rs_wall_ms = num in
    Protocol.Result
      { rs_id; rs_best_plan; rs_best_latency_us; rs_baseline_latency_us; rs_speedup;
        rs_explored; rs_rejected; rs_quarantined; rs_evaluated; rs_complete;
        rs_degraded; rs_retries; rs_cache_hits; rs_wall_ms }
  in
  let stat_key = map (fun k -> if k = "status" then "status_" else k) gen_bytes in
  oneof
    [ result;
      map2
        (fun ov_id ov_retry_after_ms -> Protocol.Overloaded { ov_id; ov_retry_after_ms })
        gen_bytes num;
      map3
        (fun un_id un_reason un_retry_after_ms ->
          Protocol.Unavailable { un_id; un_reason; un_retry_after_ms })
        gen_bytes gen_bytes num;
      map3
        (fun er_id er_class er_message ->
          Protocol.Error_resp { er_id; er_class; er_message })
        gen_bytes gen_bytes gen_bytes;
      return Protocol.Pong;
      map (fun kvs -> Protocol.Stats_resp kvs) (small_list (pair stat_key num)) ]

let gen_event =
  let open QCheck.Gen in
  let finite =
    map
      (fun b ->
        let f = Int64.float_of_bits b in
        if Float.is_finite f then f else 0.5)
      ui64
  in
  let* e_kind = oneofl [ Obs_event.Span_begin; Obs_event.Span_end; Obs_event.Note ] in
  let* e_name = gen_bytes in
  let* e_depth = int_range 0 1000 in
  let* e_t = finite in
  let* e_dur_s = opt finite in
  let+ e_detail = opt gen_bytes in
  { Obs_event.e_kind; e_name; e_depth; e_t; e_dur_s; e_detail }

(* A valid line cut short at a random offset or with one byte replaced. *)
let damaged line =
  let open QCheck.Gen in
  let* s = line in
  let n = String.length s in
  let* p = int_range 0 n in
  let* c = char in
  oneofl
    [ String.sub s 0 p; String.mapi (fun i x -> if i = p then c else x) s ]

let wire_input =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      oneof
        [ gen_bytes;
          damaged (map Protocol.request_to_json gen_request);
          damaged (map Protocol.response_to_json gen_response);
          damaged (map Obs_event.to_json gen_event) ])

let protocol_properties =
  let open QCheck in
  let total name f =
    Test.make ~name:(name ^ " is total") ~count:2000 wire_input
      (fun line -> f line; true)
  in
  [ total "Protocol.parse" (fun l ->
        ignore (Protocol.parse l : (Protocol.msg, string) result));
    total "Protocol.response_of_json" (fun l ->
        ignore (Protocol.response_of_json l : (Protocol.response, string) result));
    total "Obs_event.of_json" (fun l ->
        ignore (Obs_event.of_json l : Obs_event.t option));
    Test.make ~name:"request lines round-trip" ~count:1000
      (make ~print:Protocol.request_to_json gen_request)
      (fun r -> Protocol.parse (Protocol.request_to_json r) = Ok (Protocol.Search r));
    Test.make ~name:"response lines round-trip" ~count:1000
      (make ~print:Protocol.response_to_json gen_response)
      (fun r -> Protocol.response_of_json (Protocol.response_to_json r) = Ok r);
    Test.make ~name:"trace event lines round-trip" ~count:1000
      (make ~print:Obs_event.to_json gen_event)
      (fun e -> Obs_event.of_json (Obs_event.to_json e) = Some e) ]

(* --- parent lines ---------------------------------------------------------- *)

(* Lines written by the hand-built writers that predate [Json]: spaced
   wire objects with [%.6g] numbers, compact trace events and reports with
   [%.17g] numbers.  Old clients and old traces must keep reading to
   exactly these values, floats compared by their bits. *)

let bits = List.map (Option.map Int64.bits_of_float)

let check_reads what parse expected floats line =
  match parse line with
  | Ok v ->
      Alcotest.(check bool) (what ^ " fields") true (v = expected);
      Alcotest.(check (list (option int64))) (what ^ " float bits")
        (bits (floats expected)) (bits (floats v))
  | Error m -> Alcotest.failf "%s: %s rejected: %s" what line m

let t_parent_requests () =
  let floats = function
    | Protocol.Search rq ->
        [ rq.Protocol.rq_job.Job.jb_mutate_prob; rq.rq_deadline_ms;
          Some rq.rq_job.jb_fault_rate ]
    | _ -> []
  in
  check_reads "request" Protocol.parse
    (Protocol.Search
       (Protocol.request ~network:"resnet34" ~device:"GPU" ~candidates:17 ~seed:9
          ~mutate_prob:0.25 ~budget:12 ~deadline_ms:1234.57 ~fault_rate:0.125
          ~fault_seed:3 ~workers:2 ~strategy:Strategy.Guided "req-\"7\"\t\001\xc3\xa9"))
    floats
    {|{"op": "search", "id": "req-\"7\"\t\u0001é", "network": "resnet34", "device": "GPU", "candidates": 17, "seed": 9, "mutate_prob": 0.25, "budget": 12, "deadline_ms": 1234.57, "fault_rate": 0.125, "fault_seed": 3, "workers": 2, "strategy": "guided"}|}

let t_parent_responses () =
  let floats = function
    | Protocol.Result r ->
        List.map Option.some
          [ r.Protocol.rs_best_latency_us; r.rs_baseline_latency_us; r.rs_speedup;
            r.rs_wall_ms ]
    | Protocol.Overloaded o -> [ Some o.ov_retry_after_ms ]
    | Protocol.Unavailable u -> [ Some u.un_retry_after_ms ]
    | Protocol.Stats_resp kvs -> List.map (fun (_, v) -> Some v) kvs
    | Protocol.Error_resp _ | Protocol.Pong -> []
  in
  List.iter
    (fun (expected, line) ->
      check_reads "response" Protocol.response_of_json expected floats line)
    [ ( Protocol.Result
          { rs_id = "r1"; rs_best_plan = "group(G=8);depthwise";
            rs_best_latency_us = 1457.19; rs_baseline_latency_us = 8845.09;
            rs_speedup = 272521000.0; rs_explored = 14; rs_rejected = 2;
            rs_quarantined = 1; rs_evaluated = 14; rs_complete = true;
            rs_degraded = false; rs_retries = 3; rs_cache_hits = 279;
            rs_wall_ms = 1850.94 },
        {|{"id": "r1", "status": "ok", "best_plan": "group(G=8);depthwise", "best_latency_us": 1457.19, "baseline_latency_us": 8845.09, "speedup": 2.72521e+08, "explored": 14, "rejected": 2, "quarantined": 1, "evaluated": 14, "complete": true, "degraded": false, "retries": 3, "cache_hits": 279, "wall_ms": 1850.94}|}
      );
      ( Protocol.Overloaded { ov_id = "r2"; ov_retry_after_ms = 125.0 },
        {|{"id": "r2", "status": "overloaded", "retry_after_ms": 125}|} );
      ( Protocol.Unavailable
          { un_id = "r3"; un_reason = "breaker_open"; un_retry_after_ms = 50.5 },
        {|{"id": "r3", "status": "unavailable", "reason": "breaker_open", "retry_after_ms": 50.5}|}
      );
      ( Protocol.Error_resp
          { er_id = "r4"; er_class = "timed-out"; er_message = "late \"quoted\"\nline" },
        {|{"id": "r4", "status": "error", "class": "timed-out", "message": "late \"quoted\"\nline"}|}
      );
      (Protocol.Pong, {|{"status": "pong"}|});
      ( Protocol.Stats_resp
          [ ("admitted", 4.0); ("cache_hit_rate", 0.123457); ("inflight", 2.0);
            ("wall_ms_total", 1234567.0) ],
        {|{"status": "stats", "admitted": 4, "cache_hit_rate": 0.123457, "inflight": 2, "wall_ms_total": 1234567}|}
      ) ]

let t_parent_events () =
  let floats e = [ Some e.Obs_event.e_t; e.e_dur_s ] in
  let parse l = Option.to_result ~none:"None" (Obs_event.of_json l) in
  List.iter
    (fun (expected, line) -> check_reads "event" parse expected floats line)
    [ ( Obs_event.span_begin ~name:"search" ~depth:0 ~t:936797091.92963994,
        {|{"kind":"span_begin","name":"search","depth":0,"t":936797091.92963994}|} );
      ( Obs_event.span_end ~name:"fisher" ~depth:2 ~t:936797092.1 ~dur_s:0.1,
        {|{"kind":"span_end","name":"fisher","depth":2,"t":936797092.10000002,"dur_s":0.10000000000000001}|}
      );
      ( Obs_event.note ~detail:"ctl\001\031 tab\t quote\" \xc3\xa9" ~name:"quarantine"
          ~depth:3 ~t:1e-9 (),
        {|{"kind":"note","name":"quarantine","depth":3,"t":1.0000000000000001e-09,"detail":"ctl\u0001\u001f tab\t quote\" é"}|}
      );
      ( Obs_event.note ~name:"edge\127" ~depth:1 ~t:5e-324 (),
        "{\"kind\":\"note\",\"name\":\"edge\127\",\"depth\":1,\"t\":4.9406564584124654e-324}" );
      ( Obs_event.span_end ~name:"wall" ~depth:0 ~t:(-0.0) ~dur_s:1.7976931348623157e308,
        {|{"kind":"span_end","name":"wall","depth":0,"t":-0,"dur_s":1.7976931348623157e+308}|}
      ) ]

(* Nothing in the library reads a report back; the line pins what any
   JSON reader of [BENCH_search.json] sees.  The writer is canonical and
   lossless, so equal renderings mean bit-equal values. *)
let t_parent_report () =
  let line =
    {|{"generated":40,"static_checked":0,"static_rejected":0,"fisher_rejected":36,"quarantined":0,"cost_ranked":4,"rejection_fraction":0.90000000000000002,"paper_rejection_fraction":0.90000000000000002,"wall_s":1.5,"phases":[{"name":"fisher","count":2,"total_s":0.75,"mean_s":0.375},{"name":"cost","count":1,"total_s":0.10000000000000001,"mean_s":0.10000000000000001}],"counters":{"search.cost_ranked":4,"search.fisher_rejected":36,"search.generated":40}}|}
  in
  let n x = Json.Number x in
  let phase name count total mean =
    Json.Obj
      [ ("name", Json.String name); ("count", n count); ("total_s", n total);
        ("mean_s", n mean) ]
  in
  let expected =
    Json.Obj
      [ ("generated", n 40.); ("static_checked", n 0.); ("static_rejected", n 0.);
        ("fisher_rejected", n 36.); ("quarantined", n 0.); ("cost_ranked", n 4.);
        ("rejection_fraction", n 0.9); ("paper_rejection_fraction", n 0.9);
        ("wall_s", n 1.5);
        ("phases", Json.List [ phase "fisher" 2. 0.75 0.375; phase "cost" 1. 0.1 0.1 ]);
        ( "counters",
          Json.Obj
            [ ("search.cost_ranked", n 4.); ("search.fisher_rejected", n 36.);
              ("search.generated", n 40.) ] ) ]
  in
  match Json.of_string line with
  | Ok v -> Alcotest.(check string) "report" (Json.to_string expected) (Json.to_string v)
  | Error m -> Alcotest.failf "report line rejected: %s" m

(* --- taxonomy extensions ------------------------------------------------ *)

let t_unix_error_classified () =
  let e = Nas_error.of_exn (Unix.Unix_error (Unix.ENOENT, "open", "/nope")) in
  (match e with
  | Some (Nas_error.Io_error m) ->
      Alcotest.(check bool) "names the call" true
        (String.length m > 0 && String.sub m 0 4 = "open")
  | _ -> Alcotest.fail "Unix_error not classified as io-error");
  match Nas_error.of_exn (Sys_error "disk gone") with
  | Some (Nas_error.Io_error _) -> ()
  | _ -> Alcotest.fail "Sys_error not classified as io-error"

let t_transient_partition () =
  Alcotest.(check bool) "io-error retryable" true
    (Nas_error.transient (Io_error "x"));
  Alcotest.(check bool) "injected-fault retryable" true
    (Nas_error.transient (Injected_fault "x"));
  Alcotest.(check bool) "timed-out NOT retryable" false
    (Nas_error.transient (Timed_out "x"));
  Alcotest.(check bool) "invalid-plan NOT retryable" false
    (Nas_error.transient (Invalid_plan "x"))

(* --- deadline ----------------------------------------------------------- *)

let t_deadline_expiry () =
  let t = ref 0.0 in
  let clock () = !t in
  let dl = Deadline.make ~clock ~after_s:5.0 () in
  Alcotest.(check bool) "fresh deadline alive" false (Deadline.expired dl);
  Alcotest.(check (float 1e-9)) "remaining" 5.0 (Deadline.remaining_s dl);
  Deadline.guard dl ~label:"early";
  t := 5.0;
  Alcotest.(check bool) "expired at the instant" true (Deadline.expired dl);
  Alcotest.(check (float 0.0)) "no remaining" 0.0 (Deadline.remaining_s dl);
  (match Deadline.guard dl ~label:"late" with
  | () -> Alcotest.fail "guard passed an expired deadline"
  | exception Nas_error.Fail (Nas_error.Timed_out _) -> ());
  Alcotest.(check bool) "none never expires" false (Deadline.expired Deadline.none);
  Alcotest.(check bool) "none is never" true (Deadline.never Deadline.none)

let t_monotonic_clock () =
  let a = Deadline.monotonic () in
  let b = Deadline.monotonic () in
  Alcotest.(check bool) "non-decreasing" true (b >= a)

(* --- retry -------------------------------------------------------------- *)

let t_retry_deterministic_jitter () =
  let p = Retry.default in
  let d1 = Retry.delay_s p ~seed:3 ~attempt:1 in
  let d2 = Retry.delay_s p ~seed:3 ~attempt:1 in
  Alcotest.(check (float 0.0)) "pure in (seed, attempt)" d1 d2;
  Alcotest.(check bool) "within jitter band" true
    (d1 <= 0.1 && d1 >= 0.1 *. (1.0 -. p.Retry.rp_jitter));
  Alcotest.(check bool) "seeds de-synchronize" true
    (Retry.delay_s p ~seed:3 ~attempt:1 <> Retry.delay_s p ~seed:4 ~attempt:1)

let t_retry_recovers_transient () =
  let attempts = ref 0 and slept = ref 0 in
  let outcome, last =
    Retry.run ~sleep:(fun _ -> incr slept) ~seed:3 (fun ~attempt ->
        incr attempts;
        if attempt < 2 then Nas_error.fail (Nas_error.Io_error "flaky");
        42)
  in
  Alcotest.(check bool) "recovered" true (outcome = Ok 42);
  Alcotest.(check int) "three attempts" 3 !attempts;
  Alcotest.(check int) "two retries reported" 2 last;
  Alcotest.(check int) "two backoffs slept" 2 !slept

let t_retry_stops_on_permanent () =
  let attempts = ref 0 in
  let outcome, last =
    Retry.run ~sleep:(fun _ -> ()) ~seed:3 (fun ~attempt:_ ->
        incr attempts;
        Nas_error.fail (Nas_error.Invalid_plan "broken"))
  in
  Alcotest.(check bool) "failed with the error" true
    (match outcome with Error (Nas_error.Invalid_plan _) -> true | _ -> false);
  Alcotest.(check int) "single attempt" 1 !attempts;
  Alcotest.(check int) "no retries" 0 last

let t_retry_respects_deadline () =
  let dl = Deadline.make ~clock:(fun () -> 100.0) ~after_s:0.0 () in
  let attempts = ref 0 in
  let outcome, _ =
    Retry.run ~sleep:(fun _ -> ()) ~deadline:dl ~seed:3 (fun ~attempt:_ ->
        incr attempts;
        Nas_error.fail (Nas_error.Io_error "flaky"))
  in
  Alcotest.(check bool) "still an error" true (Result.is_error outcome);
  Alcotest.(check int) "no retry past the deadline" 1 !attempts

(* --- admission ---------------------------------------------------------- *)

let t_admission_bounds () =
  let a = Admission.create ~max_inflight:2 ~max_queue:1 () in
  let admitted () = Admission.admit a = Admission.Admitted in
  Alcotest.(check bool) "1st" true (admitted ());
  Alcotest.(check bool) "2nd" true (admitted ());
  Alcotest.(check bool) "3rd (queue slot)" true (admitted ());
  (match Admission.admit a with
  | Admission.Rejected retry_after ->
      Alcotest.(check bool) "retry-after positive" true (retry_after > 0.0)
  | Admission.Admitted -> Alcotest.fail "admitted past both bounds");
  Admission.started a;
  Admission.finished a ~dur_s:0.2;
  Alcotest.(check bool) "slot freed" true (admitted ());
  Alcotest.(check int) "admitted total" 4 (Admission.admitted_total a);
  Alcotest.(check int) "rejected total" 1 (Admission.rejected_total a)

(* --- breaker ------------------------------------------------------------ *)

let t_breaker_state_machine () =
  let t = ref 0.0 in
  let clock () = !t in
  let b = Breaker.create ~clock ~threshold:2 ~cooldown_s:10.0 () in
  let key = "resnet18|CPU" in
  Alcotest.(check bool) "fresh key flows" true (Breaker.allow b ~key);
  Breaker.failure b ~key;
  Alcotest.(check bool) "one failure still closed" true (Breaker.allow b ~key);
  Breaker.failure b ~key;
  Alcotest.(check string) "tripped open" "open"
    (Breaker.state_name (Breaker.state b ~key));
  Alcotest.(check bool) "open refuses" false (Breaker.allow b ~key);
  Alcotest.(check bool) "retry-after counts down" true
    (Breaker.retry_after_s b ~key > 0.0);
  t := 10.0;
  Alcotest.(check bool) "cooldown elapses: probe let through" true
    (Breaker.allow b ~key);
  Alcotest.(check bool) "second probe refused" false (Breaker.allow b ~key);
  Breaker.failure b ~key;
  Alcotest.(check bool) "failed probe re-opens" false (Breaker.allow b ~key);
  t := 20.0;
  Alcotest.(check bool) "second probe window" true (Breaker.allow b ~key);
  Breaker.success b ~key;
  Alcotest.(check string) "probe success closes" "closed"
    (Breaker.state_name (Breaker.state b ~key));
  Alcotest.(check bool) "closed flows again" true (Breaker.allow b ~key);
  Alcotest.(check int) "two trips recorded" 2 (Breaker.trips b);
  Alcotest.(check bool) "other keys unaffected" true
    (Breaker.allow b ~key:"resnet34|GPU")

(* A probe whose outcome never arrives must not wedge the key Half_open
   forever: an explicit [abandon] returns it to Open with a fresh
   cooldown, and even without one a stale probe is replaced after a
   cooldown's worth of silence. *)
let t_breaker_probe_cannot_wedge () =
  let t = ref 0.0 in
  let clock () = !t in
  let b = Breaker.create ~clock ~threshold:1 ~cooldown_s:10.0 () in
  let key = "resnet18|CPU" in
  Breaker.failure b ~key;
  t := 10.0;
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b ~key);
  Breaker.abandon b ~key;
  Alcotest.(check string) "abandoned probe re-opens" "open"
    (Breaker.state_name (Breaker.state b ~key));
  Alcotest.(check bool) "fresh cooldown refuses" false (Breaker.allow b ~key);
  Alcotest.(check bool) "retry-after restarted" true
    (Breaker.retry_after_s b ~key > 0.0);
  Alcotest.(check int) "abandon is not a trip" 1 (Breaker.trips b);
  t := 20.0;
  Alcotest.(check bool) "re-probes after the cooldown" true (Breaker.allow b ~key);
  (* This probe simply never reports: the stale-probe escape re-admits. *)
  Alcotest.(check bool) "half-open hints a retry-after" true
    (Breaker.retry_after_s b ~key > 0.0);
  t := 30.0;
  Alcotest.(check bool) "silent probe replaced after cooldown" true
    (Breaker.allow b ~key);
  Breaker.success b ~key;
  Alcotest.(check string) "replacement probe closes the key" "closed"
    (Breaker.state_name (Breaker.state b ~key))

(* --- shared caches ------------------------------------------------------ *)

let t_cache_entries_merge () =
  let c = Bounded_cache.create ~capacity:3 () in
  ignore (Bounded_cache.remember c "a" (fun () -> 1));
  ignore (Bounded_cache.remember c "b" (fun () -> 2));
  Alcotest.(check (list (pair string int))) "entries in FIFO order"
    [ ("a", 1); ("b", 2) ] (Bounded_cache.entries c);
  let d = Bounded_cache.create ~capacity:3 () in
  ignore (Bounded_cache.remember d "b" (fun () -> 99));
  let inserted = Bounded_cache.merge_entries d (Bounded_cache.entries c) in
  Alcotest.(check int) "only absent keys inserted" 1 inserted;
  Alcotest.(check bool) "present key wins" true
    (Bounded_cache.find_opt d "b" = Some 99);
  Alcotest.(check bool) "absent key merged" true
    (Bounded_cache.find_opt d "a" = Some 1);
  let tiny = Bounded_cache.create ~capacity:1 () in
  ignore (Bounded_cache.merge_entries tiny (Bounded_cache.entries c));
  Alcotest.(check int) "merge respects capacity" 1
    (Bounded_cache.stats tiny).Bounded_cache.cs_size

let t_ctx_cache_persistence () =
  let path = tmp_path "nas_pte_test_caches.bin" in
  Checkpoint.remove ~path;
  let ctx = Eval_ctx.create () in
  ignore (Bounded_cache.remember (Eval_ctx.cost_cache ctx) "w1" (fun () -> 1.5));
  ignore (Bounded_cache.remember (Eval_ctx.cost_cache ctx) "w2" (fun () -> 2.5));
  (match Eval_ctx.save_caches ~path ctx with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Nas_error.to_string e));
  let fresh = Eval_ctx.create () in
  (match Eval_ctx.load_caches ~path fresh with
  | Ok n -> Alcotest.(check int) "entries restored" 2 n
  | Error e -> Alcotest.fail (Nas_error.to_string e));
  Alcotest.(check bool) "restored value intact" true
    (Bounded_cache.find_opt (Eval_ctx.cost_cache fresh) "w2" = Some 2.5);
  Checkpoint.remove ~path

(* Corruption drills (cache-snapshot flavor of the checkpoint tests): a
   truncated file, plain garbage, and a structurally valid checkpoint of
   the wrong type must each come back as a structured Checkpoint_error —
   the caller cold-starts; nothing crashes. *)
let t_ctx_cache_corruption () =
  let path = tmp_path "nas_pte_test_caches_bad.bin" in
  let expect_error label =
    match Eval_ctx.load_caches ~path (Eval_ctx.create ()) with
    | Error (Nas_error.Checkpoint_error _) -> ()
    | Error e ->
        Alcotest.failf "%s: wrong class %s" label (Nas_error.class_name e)
    | Ok n -> Alcotest.failf "%s: loaded %d entries from junk" label n
  in
  Checkpoint.remove ~path;
  let ctx = Eval_ctx.create () in
  ignore (Bounded_cache.remember (Eval_ctx.cost_cache ctx) "w1" (fun () -> 1.5));
  (match Eval_ctx.save_caches ~path ctx with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Nas_error.to_string e));
  let whole = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub whole 0 (String.length whole / 2)));
  expect_error "truncated snapshot";
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "NASPTE-CKPT1 but then garbage follows");
  expect_error "garbage snapshot";
  (match Checkpoint.save ~path ("some other subsystem", [ 1; 2; 3 ]) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Nas_error.to_string e));
  expect_error "foreign checkpoint type";
  Checkpoint.remove ~path

(* --- cooperative cancellation ------------------------------------------- *)

let t_search_stop_hook () =
  let _, model, probe = setup () in
  let run ?stop () =
    Unified_search.search ~candidates:12 ?stop ~rng:(Rng.create 5)
      ~ctx:(Eval_ctx.create ()) ~device:Device.i7 ~probe model
  in
  let full = run () in
  let idle = run ~stop:(fun () -> false) () in
  Alcotest.(check string) "inert hook is bit-identical"
    (Unified_search.plans_signature full.Unified_search.r_best.Unified_search.cd_plans)
    (Unified_search.plans_signature idle.Unified_search.r_best.Unified_search.cd_plans);
  Alcotest.(check bool) "inert hook completes" true idle.Unified_search.r_complete;
  let polled = ref 0 in
  let cut = run ~stop:(fun () -> incr polled; !polled > 3) () in
  Alcotest.(check bool) "stopped early" false cut.Unified_search.r_complete;
  Alcotest.(check bool) "partial progress" true
    (cut.Unified_search.r_evaluated < full.Unified_search.r_evaluated);
  Alcotest.(check bool) "best-so-far incumbent exists" true
    (cut.Unified_search.r_best.Unified_search.cd_latency_s > 0.0)

(* --- the server --------------------------------------------------------- *)

let submit_all srv reqs =
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let got = ref 0 in
  let n = List.length reqs in
  let replies = Array.make n None in
  List.iteri
    (fun i rq ->
      Server.submit_async srv rq ~reply:(fun resp ->
          Mutex.lock lock;
          replies.(i) <- Some resp;
          incr got;
          Condition.signal cond;
          Mutex.unlock lock))
    reqs;
  Mutex.lock lock;
  while !got < n do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  Array.to_list (Array.map Option.get replies)

(* The acceptance bar: >= 8 concurrent sessions, each bit-identical to a
   one-shot [Job.run] of the request's job on a fresh context. *)
let t_server_concurrent_identical () =
  let seeds = [ 21; 22; 23; 24 ] in
  let direct =
    List.map
      (fun seed ->
        let _, r =
          Job.run ~ctx:(Eval_ctx.create ())
            (Protocol.request ~candidates:6 ~seed "direct").Protocol.rq_job
        in
        ( seed,
          Unified_search.plans_signature
            r.Unified_search.r_best.Unified_search.cd_plans,
          r.Unified_search.r_best.Unified_search.cd_latency_s ))
      seeds
  in
  let srv =
    Server.create
      ~config:{ Server.default_config with cf_workers = 8; cf_max_queue = 8 }
      ()
  in
  let reqs =
    List.concat_map
      (fun seed ->
        [ Protocol.request ~candidates:6 ~seed (Printf.sprintf "s%d-a" seed);
          Protocol.request ~candidates:6 ~seed (Printf.sprintf "s%d-b" seed) ])
      seeds
  in
  Alcotest.(check int) "eight concurrent sessions" 8 (List.length reqs);
  let replies = submit_all srv reqs in
  List.iter2
    (fun rq resp ->
      match resp with
      | Protocol.Result r ->
          let _, sg, lat =
            List.find (fun (s, _, _) -> s = rq.Protocol.rq_job.Job.jb_seed) direct
          in
          Alcotest.(check string)
            (rq.Protocol.rq_id ^ " plan matches one-shot") sg
            r.Protocol.rs_best_plan;
          Alcotest.(check (float 0.0))
            (rq.Protocol.rq_id ^ " latency matches one-shot")
            (1e6 *. lat) r.Protocol.rs_best_latency_us
      | _ -> Alcotest.failf "%s was not served" rq.Protocol.rq_id)
    reqs replies;
  let st = Server.shutdown srv in
  Alcotest.(check int) "all sessions completed" 8 st.Server.st_completed;
  Alcotest.(check bool) "cross-session cache hits accrued" true
    (Server.cache_hit_rate st > 0.0)

let t_server_overload_rejects () =
  let srv =
    Server.create
      ~config:{ Server.default_config with cf_workers = 1; cf_max_queue = 0 }
      ()
  in
  (* The admission decision is taken synchronously at submit time, so with
     one worker and no queue the second submit is rejected no matter how
     the domains are scheduled. *)
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let first = ref None in
  Server.submit_async srv (Protocol.request ~candidates:6 ~seed:1 "slow")
    ~reply:(fun resp ->
      Mutex.lock lock;
      first := Some resp;
      Condition.signal cond;
      Mutex.unlock lock);
  (match Server.submit srv (Protocol.request ~candidates:4 ~seed:2 "shed") with
  | Protocol.Overloaded { ov_id; ov_retry_after_ms } ->
      Alcotest.(check string) "rejection echoes the id" "shed" ov_id;
      Alcotest.(check bool) "retry-after hint positive" true
        (ov_retry_after_ms > 0.0)
  | _ -> Alcotest.fail "second request was not load-shed");
  Mutex.lock lock;
  while !first = None do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  let st = Server.shutdown srv in
  Alcotest.(check int) "one rejection counted" 1 st.Server.st_rejected;
  Alcotest.(check int) "the admitted one finished" 1 st.Server.st_completed

let t_server_deadline_expired () =
  let srv = Server.create ~config:{ Server.default_config with cf_workers = 1 } () in
  (* A nanosecond deadline is over before the worker's first guard. *)
  let resp =
    Server.submit srv
      (Protocol.request ~candidates:6 ~seed:1 ~deadline_ms:1e-6 "late")
  in
  (match resp with
  | Protocol.Error_resp { er_class; _ } ->
      Alcotest.(check string) "classified timed-out" "timed-out" er_class
  | Protocol.Result r ->
      Alcotest.(check bool) "or degraded best-so-far" true
        r.Protocol.rs_degraded
  | _ -> Alcotest.fail "deadline produced neither error nor degraded result");
  let st = Server.shutdown srv in
  Alcotest.(check bool) "deadline expiry counted" true
    (st.Server.st_deadline_expired >= 1)

(* Fault draws are pure in (request id, attempt), so scanning ids finds one
   that fails its first attempt and recovers on retry — deterministically. *)
let flaky_plan () = Fault.make ~targets:[ Fault.Plan_gen ] ~seed:7 ~rate:0.5 ()

let find_id pred =
  let plan = flaky_plan () in
  let trips id attempt =
    Fault.trip (Fault.copy plan) ~key:(Server.fault_key ~id ~attempt) Fault.Plan_gen
  in
  let rec scan i =
    if i > 5000 then Alcotest.fail "no id with the wanted fault pattern"
    else
      let id = "r" ^ string_of_int i in
      if pred (trips id) then id else scan (i + 1)
  in
  scan 0

let t_server_retries_transient () =
  let id = find_id (fun trips -> trips 0 && not (trips 1)) in
  let srv =
    Server.create
      ~config:
        { Server.default_config with
          cf_workers = 1;
          cf_fault = flaky_plan ();
          cf_retry = { Retry.default with rp_base_delay_s = 0.001 } }
      ()
  in
  (match Server.submit srv (Protocol.request ~candidates:6 ~seed:1 id) with
  | Protocol.Result r ->
      Alcotest.(check int) "recovered on the second attempt" 1
        r.Protocol.rs_retries;
      Alcotest.(check bool) "and completed" true r.Protocol.rs_complete
  | _ -> Alcotest.fail "transient fault was not retried to success");
  let st = Server.shutdown srv in
  Alcotest.(check bool) "retry counted" true (st.Server.st_retried >= 1)

let t_server_breaker_opens () =
  (* rate 1.0: every attempt of every session faults, so each request
     exhausts its retries and fails — two failures trip the breaker. *)
  let srv =
    Server.create
      ~config:
        { Server.default_config with
          cf_workers = 1;
          cf_fault = Fault.make ~targets:[ Fault.Plan_gen ] ~seed:7 ~rate:1.0 ();
          cf_retry = Retry.no_retry;
          cf_breaker_threshold = 2;
          cf_breaker_cooldown_s = 3600.0 }
      ()
  in
  let fail_once i =
    match Server.submit srv (Protocol.request ~candidates:4 ~seed:i ("f" ^ string_of_int i)) with
    | Protocol.Error_resp { er_class; _ } ->
        Alcotest.(check string) "session faulted" "injected-fault" er_class
    | _ -> Alcotest.fail "fault rate 1.0 produced a result"
  in
  fail_once 1;
  fail_once 2;
  (match Server.submit srv (Protocol.request ~candidates:4 ~seed:3 "refused") with
  | Protocol.Unavailable { un_reason; un_retry_after_ms; _ } ->
      Alcotest.(check string) "breaker names itself" "breaker_open" un_reason;
      Alcotest.(check bool) "cooldown hint positive" true
        (un_retry_after_ms > 0.0)
  | _ -> Alcotest.fail "third request was not refused by the breaker");
  (match Server.submit srv (Protocol.request ~device:"GPU" ~candidates:4 ~seed:4 "other") with
  | Protocol.Unavailable _ -> Alcotest.fail "breaker leaked across workloads"
  | _ -> ());
  let st = Server.shutdown srv in
  Alcotest.(check bool) "trip recorded" true (st.Server.st_breaker_trips >= 1);
  Alcotest.(check bool) "refusal counted" true (st.Server.st_breaker_open >= 1)

(* The probe whose session ends in Timed_out — deliberately not a breaker
   failure — must hand the key back to Open rather than leave it wedged
   Half_open: the workload recovers once a healthy probe gets through. *)
let t_server_stuck_probe_recovers () =
  let now = Atomic.make 0.0 in
  let clock () = Atomic.get now in
  let bad = find_id (fun trips -> trips 0) in
  let good = find_id (fun trips -> not (trips 0)) in
  let srv =
    Server.create ~clock
      ~config:
        { Server.default_config with
          cf_workers = 1;
          cf_fault = flaky_plan ();
          cf_retry = Retry.no_retry;
          cf_breaker_threshold = 1;
          cf_breaker_cooldown_s = 5.0 }
      ()
  in
  (match Server.submit srv (Protocol.request ~candidates:4 ~seed:1 bad) with
  | Protocol.Error_resp { er_class; _ } ->
      Alcotest.(check string) "workload tripped" "injected-fault" er_class
  | _ -> Alcotest.fail "failing workload did not trip");
  Atomic.set now 5.0;
  (* Cooldown elapsed: this request is the probe, and it is already past
     its (submit-stamped) deadline, so it times out with no verdict. *)
  (match
     Server.submit srv
       (Protocol.request ~candidates:4 ~seed:2 ~deadline_ms:0.0 "probe")
   with
  | Protocol.Error_resp { er_class; _ } ->
      Alcotest.(check string) "probe timed out" "timed-out" er_class
  | _ -> Alcotest.fail "expired probe was not timed out");
  (* The abandoned probe re-opened the key: refused, with a hint. *)
  (match Server.submit srv (Protocol.request ~candidates:4 ~seed:3 "refused") with
  | Protocol.Unavailable { un_reason; _ } ->
      Alcotest.(check string) "cooldown restarted" "breaker_open" un_reason
  | _ -> Alcotest.fail "key was not re-opened after the lost probe");
  Atomic.set now 10.0;
  (match Server.submit srv (Protocol.request ~candidates:4 ~seed:4 good) with
  | Protocol.Result r ->
      Alcotest.(check bool) "healthy probe recovers the workload" true
        r.Protocol.rs_complete
  | _ -> Alcotest.fail "workload never recovered from the lost probe");
  ignore (Server.shutdown srv)

(* The deadline clock starts at submit: a request whose budget elapses
   while it waits in the admission queue is expired, not granted a fresh
   deadline at dequeue. *)
let t_server_queue_wait_expires_deadline () =
  let now = Atomic.make 0.0 in
  let clock () = Atomic.get now in
  let srv =
    Server.create ~clock ~config:{ Server.default_config with cf_workers = 1 } ()
  in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let pending = ref 2 in
  let queued = ref None in
  let note slot resp =
    Mutex.lock lock;
    (match slot with Some r -> r := Some resp | None -> ());
    decr pending;
    Condition.signal cond;
    Mutex.unlock lock
  in
  Server.submit_async srv (Protocol.request ~candidates:6 ~seed:1 "ahead")
    ~reply:(note None);
  Server.submit_async srv
    (Protocol.request ~candidates:6 ~seed:2 ~deadline_ms:1000.0 "queued")
    ~reply:(note (Some queued));
  (* The queued request's whole budget elapses behind "ahead". *)
  Atomic.set now 10.0;
  Mutex.lock lock;
  while !pending > 0 do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  (match !queued with
  | Some (Protocol.Error_resp { er_class; _ }) ->
      Alcotest.(check string) "expired while queued" "timed-out" er_class
  | Some (Protocol.Result r) ->
      Alcotest.(check bool) "or degraded to best-so-far" true
        r.Protocol.rs_degraded
  | _ -> Alcotest.fail "queued request was not answered");
  let st = Server.shutdown srv in
  Alcotest.(check bool) "queue-wait expiry counted" true
    (st.Server.st_deadline_expired >= 1)

let t_server_bad_requests () =
  let srv = Server.create ~config:{ Server.default_config with cf_workers = 1 } () in
  (match Server.submit srv (Protocol.request ~network:"alexnet" "unknown-net") with
  | Protocol.Error_resp { er_class; _ } ->
      Alcotest.(check string) "unknown network is bad-request" "bad-request"
        er_class
  | _ -> Alcotest.fail "unknown network accepted");
  (match Server.submit srv (Protocol.request ~device:"TPU" "unknown-dev") with
  | Protocol.Error_resp { er_class; _ } ->
      Alcotest.(check string) "unknown device is bad-request" "bad-request"
        er_class
  | _ -> Alcotest.fail "unknown device accepted");
  let st = Server.shutdown srv in
  Alcotest.(check bool) "bad requests never trip breakers" true
    (st.Server.st_breaker_trips = 0)

let t_server_cold_start_on_corrupt_snapshot () =
  let path = tmp_path "nas_pte_test_serve_corrupt.bin" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "definitely not a cache snapshot");
  let config =
    { Server.default_config with cf_workers = 1; cf_cache_file = Some path }
  in
  let srv = Server.create ~config () in
  let st0 = Server.stats srv in
  Alcotest.(check int) "no entries from junk" 0 st0.Server.st_warm_entries;
  (match st0.Server.st_cache_error with
  | Some (Nas_error.Checkpoint_error _) -> ()
  | Some e -> Alcotest.failf "wrong class %s" (Nas_error.class_name e)
  | None -> Alcotest.fail "corruption went unreported");
  (match Server.submit srv (Protocol.request ~candidates:6 ~seed:1 "after") with
  | Protocol.Result r -> Alcotest.(check bool) "still serves" true r.Protocol.rs_complete
  | _ -> Alcotest.fail "cold-started server failed to serve");
  ignore (Server.shutdown srv);
  (* The shutdown snapshot replaced the junk: the next boot is warm. *)
  let srv2 = Server.create ~config () in
  let warm = (Server.stats srv2).Server.st_warm_entries in
  ignore (Server.shutdown srv2);
  Sys.remove path;
  Alcotest.(check bool) "recovered snapshot warms the restart" true (warm > 0)

(* A snapshot of the first schema keyed Fisher scores by seed and plan
   names only, which collides across networks.  Its layout is unchanged, so
   only the schema tag tells it apart: it must be refused as foreign and
   the server must cold-start. *)
type v1_snapshot = {
  v1_schema : string;
  v1_cost : (string * float) list;
  v1_fisher : (string * Fisher.scores) list;
}

let t_server_refuses_v1_snapshot () =
  let path = tmp_path "nas_pte_test_serve_v1.bin" in
  (match
     Checkpoint.save ~path
       { v1_schema = "nas-pte-shared-caches-v1";
         v1_cost = [ ("w1", 1.5) ];
         v1_fisher = [ ("7|baseline", { Fisher.per_site = [| 1.0 |]; total = 1.0 }) ] }
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Nas_error.to_string e));
  (match Eval_ctx.load_caches ~path (Eval_ctx.create ()) with
  | Error (Nas_error.Checkpoint_error msg) ->
      Alcotest.(check bool) "refused as foreign" true
        (String.ends_with ~suffix:"foreign cache snapshot" msg)
  | Error e -> Alcotest.failf "wrong class %s" (Nas_error.class_name e)
  | Ok n -> Alcotest.failf "loaded %d entries from a v1 snapshot" n);
  let srv =
    Server.create
      ~config:{ Server.default_config with cf_workers = 1; cf_cache_file = Some path }
      ()
  in
  let st = Server.stats srv in
  ignore (Server.shutdown srv);
  Sys.remove path;
  Alcotest.(check int) "cold start" 0 st.Server.st_warm_entries;
  match st.Server.st_cache_error with
  | Some (Nas_error.Checkpoint_error _) -> ()
  | Some e -> Alcotest.failf "wrong class %s" (Nas_error.class_name e)
  | None -> Alcotest.fail "v1 snapshot went unreported"

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "serve"
    [ ( "protocol",
        [ quick "request roundtrip" t_request_roundtrip;
          quick "request defaults" t_request_defaults;
          quick "parse rejects" t_parse_rejects;
          quick "control ops" t_parse_ops;
          quick "response roundtrip" t_response_roundtrip ] );
      (* Alcotest pads every group to the longest group name and cuts test
         names at 80 columns, so a longer group name would truncate the
         names below. *)
      ( "codec props",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          protocol_properties );
      ( "parent lines",
        [ quick "requests" t_parent_requests;
          quick "responses" t_parent_responses;
          quick "trace events" t_parent_events;
          quick "report" t_parent_report ] );
      ( "taxonomy",
        [ quick "unix errors classified" t_unix_error_classified;
          quick "transient partition" t_transient_partition ] );
      ( "deadline",
        [ quick "expiry" t_deadline_expiry;
          quick "monotonic clock" t_monotonic_clock ] );
      ( "retry",
        [ quick "deterministic jitter" t_retry_deterministic_jitter;
          quick "recovers transient" t_retry_recovers_transient;
          quick "stops on permanent" t_retry_stops_on_permanent;
          quick "respects deadline" t_retry_respects_deadline ] );
      ("admission", [ quick "bounds" t_admission_bounds ]);
      ( "breaker",
        [ quick "state machine" t_breaker_state_machine;
          quick "probe cannot wedge" t_breaker_probe_cannot_wedge ] );
      ( "shared caches",
        [ quick "entries merge" t_cache_entries_merge;
          quick "persistence roundtrip" t_ctx_cache_persistence;
          quick "corruption drills" t_ctx_cache_corruption ] );
      ("cancellation", [ quick "stop hook" t_search_stop_hook ]);
      ( "server",
        [ quick "8 concurrent sessions = one-shot" t_server_concurrent_identical;
          quick "overload load-sheds" t_server_overload_rejects;
          quick "deadline expiry" t_server_deadline_expired;
          quick "retries transients" t_server_retries_transient;
          quick "breaker opens" t_server_breaker_opens;
          quick "stuck probe recovers" t_server_stuck_probe_recovers;
          quick "queue wait expires deadline" t_server_queue_wait_expires_deadline;
          quick "bad requests" t_server_bad_requests;
          quick "cold start on corrupt snapshot"
            t_server_cold_start_on_corrupt_snapshot;
          quick "refuses a v1 snapshot" t_server_refuses_v1_snapshot ] ) ]
