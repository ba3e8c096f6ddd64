(* The four xoshiro256** words live unboxed in a 32-byte [Bytes.t], read
   and written with the unchecked 64-bit accessors, which ocamlopt
   compiles to plain loads and stores.  [bits64] is inlined into every draw,
   so a draw allocates nothing beyond the boxed value it returns to a
   caller in another module. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64 is used only to expand the integer seed into four well-mixed
   64-bit words for xoshiro256**. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    set64 t (8 * w) (splitmix64 state)
  done;
  t

let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 0 (logxor s0 s3);
  set64 t 8 (logxor s1 s2);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create (seed lxor 0x5DEECE66D)

let int t bound =
  assert (bound > 0);
  (* Rejection-free modulo is fine for our purposes; bias is negligible for
     the small bounds used throughout. *)
  let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  raw mod bound

(* The top 53 bits scaled by 2^-53: below 2^53, so the conversion is exact. *)
let[@inline] uniform t =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. (1.0 /. 9007199254740992.0)

let float t bound = uniform t *. bound

(* Box-Muller; a [u1] too close to zero for [log] is drawn again, [u2] is
   drawn once after it. *)
let[@inline] gauss t =
  let u1 = ref (uniform t) in
  while !u1 <= 1e-12 do
    u1 := uniform t
  done;
  let u2 = uniform t in
  sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)

let gauss_scaled t ~mean ~std = mean +. (std *. gauss t)
let bool t = Int64.logand (bits64 t) 1L = 1L

let choice t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let choice_list t lst =
  let arr = Array.of_list lst in
  choice t arr

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t k arr =
  assert (k <= Array.length arr);
  let copy = Array.copy arr in
  shuffle t copy;
  Array.sub copy 0 k

let permutation t n =
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  arr
