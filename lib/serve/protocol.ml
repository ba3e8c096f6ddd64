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
  rq_network : string;
  rq_device : string;
  rq_candidates : int;
  rq_seed : int;
  rq_mutate_prob : float option;
  rq_budget : int option;
  rq_deadline_ms : float option;
  rq_fault_rate : float;
  rq_fault_seed : int option;
  rq_workers : int;
  rq_strategy : Strategy.t option;
}

let request ?(network = "resnet18") ?(device = "CPU") ?(candidates = 40)
    ?(seed = 42) ?mutate_prob ?budget ?deadline_ms ?(fault_rate = 0.0) ?fault_seed
    ?(workers = 1) ?strategy id =
  { rq_id = id;
    rq_network = network;
    rq_device = device;
    rq_candidates = candidates;
    rq_seed = seed;
    rq_mutate_prob = mutate_prob;
    rq_budget = budget;
    rq_deadline_ms = deadline_ms;
    rq_fault_rate = fault_rate;
    rq_fault_seed = fault_seed;
    rq_workers = workers;
    rq_strategy = strategy }

type msg = Search of request | Ping | Stats | Shutdown

let validated rq =
  (* The registry is the single source of servable networks; a typo'd name
     is a parse-time error listing the valid ones, same as the CLI. *)
  if Zoo.find rq.rq_network = None then
    parse_error "unknown network %s (valid: %s)" rq.rq_network Zoo.names_doc;
  if rq.rq_candidates < 1 then parse_error "candidates must be >= 1";
  if rq.rq_workers < 1 then parse_error "workers must be >= 1";
  if rq.rq_fault_rate < 0.0 || rq.rq_fault_rate > 1.0 then
    parse_error "fault_rate must be in [0,1]";
  (match rq.rq_deadline_ms with
  | Some d when d <= 0.0 -> parse_error "deadline_ms must be positive"
  | _ -> ());
  (match rq.rq_budget with
  | Some b when b < 1 -> parse_error "budget must be >= 1"
  | _ -> ());
  (match rq.rq_mutate_prob with
  | Some p when p < 0.0 || p > 1.0 -> parse_error "mutate_prob must be in [0,1]"
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
        let dflt = request "" in
        let get_s key d = Option.value ~default:d (str_field fields key) in
        let get_i key d = Option.value ~default:d (int_field fields key) in
        Ok
          (Search
             (validated
                { rq_id = get_s "id" "";
                  rq_network = get_s "network" dflt.rq_network;
                  rq_device = get_s "device" dflt.rq_device;
                  rq_candidates = get_i "candidates" dflt.rq_candidates;
                  rq_seed = get_i "seed" dflt.rq_seed;
                  rq_mutate_prob = num_field fields "mutate_prob";
                  rq_budget = int_field fields "budget";
                  rq_deadline_ms = num_field fields "deadline_ms";
                  rq_fault_rate = Option.value ~default:0.0 (num_field fields "fault_rate");
                  rq_fault_seed = int_field fields "fault_seed";
                  rq_workers = get_i "workers" dflt.rq_workers;
                  rq_strategy =
                    (match str_field fields "strategy" with
                    | None -> None
                    | Some s -> (
                        match Strategy.of_string s with
                        | Some t -> Some t
                        | None ->
                            parse_error "unknown strategy %s (valid: %s)" s
                              Strategy.names_doc)) }))
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
  Json.to_string
    (Json.Obj
       ([ ("op", Json.String "search");
          ("id", Json.String rq.rq_id);
          ("network", Json.String rq.rq_network);
          ("device", Json.String rq.rq_device);
          ("candidates", int rq.rq_candidates);
          ("seed", int rq.rq_seed) ]
       @ opt "mutate_prob" num rq.rq_mutate_prob
       @ opt "budget" int rq.rq_budget
       @ opt "deadline_ms" num rq.rq_deadline_ms
       @ (if rq.rq_fault_rate > 0.0 then [ ("fault_rate", num rq.rq_fault_rate) ] else [])
       @ opt "fault_seed" int rq.rq_fault_seed
       @ (if rq.rq_workers <> 1 then [ ("workers", int rq.rq_workers) ] else [])
       @ opt "strategy" (fun t -> Json.String (Strategy.to_string t)) rq.rq_strategy))

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
