type source = Fisher_score | Cost_model | Plan_gen | Tensor_data

type t =
  | Invalid_plan of string
  | Shape_mismatch of string
  | Non_finite of source
  | Injected_fault of string
  | Checkpoint_error of string
  | Io_error of string
  | Timed_out of string
  | Eval_failure of string

exception Fail of t

let fail e = raise (Fail e)
let invalid_plan fmt = Printf.ksprintf (fun m -> fail (Invalid_plan m)) fmt
let shape_mismatch fmt = Printf.ksprintf (fun m -> fail (Shape_mismatch m)) fmt

let source_to_string = function
  | Fisher_score -> "fisher-score"
  | Cost_model -> "cost-model"
  | Plan_gen -> "plan-gen"
  | Tensor_data -> "tensor-data"

let class_name = function
  | Invalid_plan _ -> "invalid-plan"
  | Shape_mismatch _ -> "shape-mismatch"
  | Non_finite s -> "non-finite:" ^ source_to_string s
  | Injected_fault _ -> "injected-fault"
  | Checkpoint_error _ -> "checkpoint-error"
  | Io_error _ -> "io-error"
  | Timed_out _ -> "timed-out"
  | Eval_failure _ -> "eval-failure"

let to_string = function
  | Invalid_plan m -> "invalid plan: " ^ m
  | Shape_mismatch m -> "shape mismatch: " ^ m
  | Non_finite s -> "non-finite value from " ^ source_to_string s
  | Injected_fault m -> "injected fault: " ^ m
  | Checkpoint_error m -> "checkpoint error: " ^ m
  | Io_error m -> "I/O error: " ^ m
  | Timed_out m -> "timed out: " ^ m
  | Eval_failure m -> "evaluation failure: " ^ m

let pp ppf e = Format.pp_print_string ppf (to_string e)

let of_exn = function
  | Fail e -> Some e
  | Unix.Unix_error (ue, fn, arg) ->
      let what = if arg = "" then fn else fn ^ " " ^ arg in
      Some (Io_error (what ^ ": " ^ Unix.error_message ue))
  | Sys_error m -> Some (Io_error m)
  | Invalid_argument m -> Some (Eval_failure ("invalid argument: " ^ m))
  | Failure m -> Some (Eval_failure m)
  | Division_by_zero -> Some (Eval_failure "division by zero")
  | Assert_failure (file, line, _) ->
      Some (Eval_failure (Printf.sprintf "assertion at %s:%d" file line))
  | _ -> None

(* Worth retrying with backoff: failures of the environment, not of the
   candidate or the request.  A timed-out session must NOT be transient —
   its deadline has already passed, retrying can only waste the pool. *)
let transient = function
  | Io_error _ | Injected_fault _ | Checkpoint_error _ -> true
  | Invalid_plan _ | Shape_mismatch _ | Non_finite _ | Timed_out _ | Eval_failure _ ->
      false

let guard f =
  try Ok (f ())
  with e -> ( match of_exn e with Some t -> Error t | None -> raise e)

let count_classes quarantine =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (_, e) ->
      let c = class_name e in
      Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    quarantine;
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl []
  |> List.sort (fun (c1, n1) (c2, n2) ->
         if n1 <> n2 then compare n2 n1 else compare c1 c2)
