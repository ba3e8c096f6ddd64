(* Line-oriented JSON protocol: one flat JSON object per line in, one per
   line out.  Lines are read and written by [Json]; this module checks the
   protocol's shape on top — an object of scalar fields. *)

exception Parse of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let parse_flat_object line =
  match Json.of_string line with
  | Error m -> parse_error "%s" m
  | Ok (Json.Obj fields) ->
      List.iter
        (function
          | _, (Json.List _ | Json.Obj _) ->
              parse_error "nested values are not part of the protocol"
          | _ -> ())
        fields;
      fields
  | Ok _ -> parse_error "expected a JSON object"

(* --- field accessors ---------------------------------------------------- *)

let find fields key = Json.member key (Json.Obj fields)

let str_field fields key =
  match find fields key with
  | Some (Json.String s) -> Some s
  | Some _ -> parse_error "field %s must be a string" key
  | None -> None

let num_field fields key =
  match find fields key with
  | Some (Json.Number x) -> Some x
  | Some _ -> parse_error "field %s must be a number" key
  | None -> None

let int_field fields key =
  match num_field fields key with
  | Some x ->
      let i = int_of_float x in
      if float_of_int i <> x then parse_error "field %s must be an integer" key;
      Some i
  | None -> None

(* --- requests ----------------------------------------------------------- *)

type request = {
  rq_id : string;
  rq_job : Job.t;
  rq_deadline_ms : float option;
}

let request ?network ?device ?candidates ?seed ?mutate_prob ?budget ?deadline_ms
    ?fault_rate ?fault_seed ?workers ?strategy id =
  { rq_id = id;
    rq_job =
      Job.make ?network ?device ?candidates ?seed ?strategy ?mutate_prob ?budget
        ?workers ?fault_rate ?fault_seed ();
    rq_deadline_ms = deadline_ms }

type msg = Search of request | Ping | Stats | Shutdown

let validated rq =
  (match Job.validate rq.rq_job with Ok () -> () | Error m -> parse_error "%s" m);
  (match rq.rq_deadline_ms with
  | Some d when d <= 0.0 -> parse_error "deadline_ms must be positive"
  | _ -> ());
  rq

(* Every key a search request may carry.  Anything else is rejected: a
   typo'd knob ("candidats") must come back as an error, not be silently
   ignored in favor of its default. *)
let search_keys =
  [ "op"; "id"; "network"; "device"; "candidates"; "seed"; "mutate_prob";
    "budget"; "deadline_ms"; "fault_rate"; "fault_seed"; "workers"; "strategy" ]

let parse line =
  try
    let fields = parse_flat_object line in
    match str_field fields "op" with
    | Some "ping" -> Ok Ping
    | Some "stats" -> Ok Stats
    | Some "shutdown" -> Ok Shutdown
    | Some "search" ->
        List.iter
          (fun (k, _) ->
            if not (List.mem k search_keys) then
              parse_error "unknown field %s in search request" k)
          fields;
        let str = str_field fields and int = int_field fields in
        let num = num_field fields in
        let strategy s =
          match Strategy.of_string s with
          | Some t -> t
          | None -> parse_error "unknown strategy %s (valid: %s)" s Strategy.names_doc
        in
        Ok
          (Search
             (validated
                (request ?network:(str "network") ?device:(str "device")
                   ?candidates:(int "candidates") ?seed:(int "seed")
                   ?mutate_prob:(num "mutate_prob") ?budget:(int "budget")
                   ?deadline_ms:(num "deadline_ms") ?fault_rate:(num "fault_rate")
                   ?fault_seed:(int "fault_seed") ?workers:(int "workers")
                   ?strategy:(Option.map strategy (str "strategy"))
                   (Option.value ~default:"" (str "id")))))
    | Some other -> Error (Printf.sprintf "unknown op %s" other)
    | None ->
        (* Defaulting a bare '{}' (or a typo'd "opp" key) into a full
           search would silently launch real work; demand intent. *)
        Error "missing op field (search | ping | stats | shutdown)"
  with Parse m -> Error m

(* --- wire writing ------------------------------------------------------- *)

(* Protocol floats favor readability over bit-exact round-trips: values
   are rounded to six significant digits, plenty for latencies and rates,
   which keeps response lines short.  Integral values below 1e15 (counts,
   ids) stay exact. *)
let num x =
  Json.Number
    (if Float.is_integer x && Float.abs x < 1e15 then x
     else float_of_string (Printf.sprintf "%.6g" x))

let int n = Json.Number (float_of_int n)
let opt key f = function Some x -> [ (key, f x) ] | None -> []

let request_to_json rq =
  let j = rq.rq_job in
  Json.to_string
    (Json.Obj
       ([ ("op", Json.String "search");
          ("id", Json.String rq.rq_id);
          ("network", Json.String j.Job.jb_network);
          ("device", Json.String j.jb_device);
          ("candidates", int j.jb_candidates);
          ("seed", int j.jb_seed) ]
       @ opt "mutate_prob" num j.jb_mutate_prob
       @ opt "budget" int j.jb_budget
       @ opt "deadline_ms" num rq.rq_deadline_ms
       @ (if j.jb_fault_rate > 0.0 then [ ("fault_rate", num j.jb_fault_rate) ] else [])
       @ opt "fault_seed" int j.jb_fault_seed
       @ (if j.jb_workers <> 1 then [ ("workers", int j.jb_workers) ] else [])
       @ opt "strategy" (fun t -> Json.String (Strategy.to_string t)) j.jb_strategy))

(* --- responses ---------------------------------------------------------- *)

type result_payload = {
  rs_id : string;
  rs_best_plan : string;
  rs_best_latency_us : float;
  rs_baseline_latency_us : float;
  rs_speedup : float;
  rs_explored : int;
  rs_rejected : int;
  rs_quarantined : int;
  rs_evaluated : int;
  rs_complete : bool;
  rs_degraded : bool;
  rs_retries : int;
  rs_cache_hits : int;
  rs_wall_ms : float;
}

type response =
  | Result of result_payload
  | Overloaded of { ov_id : string; ov_retry_after_ms : float }
  | Unavailable of { un_id : string; un_reason : string; un_retry_after_ms : float }
  | Error_resp of { er_id : string; er_class : string; er_message : string }
  | Pong
  | Stats_resp of (string * float) list

let response_to_json resp =
  let reply id status fields =
    Json.Obj (("id", Json.String id) :: ("status", Json.String status) :: fields)
  in
  Json.to_string
    (match resp with
    | Result r ->
        reply r.rs_id "ok"
          [ ("best_plan", Json.String r.rs_best_plan);
            ("best_latency_us", num r.rs_best_latency_us);
            ("baseline_latency_us", num r.rs_baseline_latency_us);
            ("speedup", num r.rs_speedup);
            ("explored", int r.rs_explored);
            ("rejected", int r.rs_rejected);
            ("quarantined", int r.rs_quarantined);
            ("evaluated", int r.rs_evaluated);
            ("complete", Json.Bool r.rs_complete);
            ("degraded", Json.Bool r.rs_degraded);
            ("retries", int r.rs_retries);
            ("cache_hits", int r.rs_cache_hits);
            ("wall_ms", num r.rs_wall_ms) ]
    | Overloaded o -> reply o.ov_id "overloaded" [ ("retry_after_ms", num o.ov_retry_after_ms) ]
    | Unavailable u ->
        reply u.un_id "unavailable"
          [ ("reason", Json.String u.un_reason); ("retry_after_ms", num u.un_retry_after_ms) ]
    | Error_resp e ->
        reply e.er_id "error"
          [ ("class", Json.String e.er_class); ("message", Json.String e.er_message) ]
    | Pong -> Json.Obj [ ("status", Json.String "pong") ]
    | Stats_resp kvs ->
        Json.Obj (("status", Json.String "stats") :: List.map (fun (k, v) -> (k, num v)) kvs))

let response_of_json line =
  try
    let fields = parse_flat_object line in
    let str key = Option.value ~default:"" (str_field fields key) in
    let num key = Option.value ~default:0.0 (num_field fields key) in
    let int key = Option.value ~default:0 (int_field fields key) in
    let bool key = find fields key = Some (Json.Bool true) in
    match str_field fields "status" with
    | Some "ok" ->
        Ok
          (Result
             { rs_id = str "id";
               rs_best_plan = str "best_plan";
               rs_best_latency_us = num "best_latency_us";
               rs_baseline_latency_us = num "baseline_latency_us";
               rs_speedup = num "speedup";
               rs_explored = int "explored";
               rs_rejected = int "rejected";
               rs_quarantined = int "quarantined";
               rs_evaluated = int "evaluated";
               rs_complete = bool "complete";
               rs_degraded = bool "degraded";
               rs_retries = int "retries";
               rs_cache_hits = int "cache_hits";
               rs_wall_ms = num "wall_ms" })
    | Some "overloaded" ->
        Ok (Overloaded { ov_id = str "id"; ov_retry_after_ms = num "retry_after_ms" })
    | Some "unavailable" ->
        Ok
          (Unavailable
             { un_id = str "id"; un_reason = str "reason";
               un_retry_after_ms = num "retry_after_ms" })
    | Some "error" ->
        Ok (Error_resp { er_id = str "id"; er_class = str "class"; er_message = str "message" })
    | Some "pong" -> Ok Pong
    | Some "stats" ->
        Ok
          (Stats_resp
             (List.filter_map
                (function
                  | k, Json.Number x when k <> "status" -> Some (k, x) | _ -> None)
                fields))
    | Some other -> Error (Printf.sprintf "unknown status %s" other)
    | None -> Error "missing status field"
  with Parse m -> Error m
