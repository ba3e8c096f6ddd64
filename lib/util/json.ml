type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let max_depth = 64

(* --- writing ------------------------------------------------------------ *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* 17 significant digits always read back to the same float; 15 or 16
   often do, and then keep integers below 1e15 and short decimals such as
   0.1 free of representation noise. *)
let number x =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p x in
    if p = 17 || float_of_string s = x then s else shortest (p + 1)
  in
  if Float.is_finite x then shortest 15 else "null"

let to_string v =
  let b = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Number x -> Buffer.add_string b (number x)
    | String s -> add_string b s
    | List l -> seq '[' ']' go l
    | Obj kvs ->
        seq '{' '}'
          (fun (k, x) ->
            add_string b k;
            Buffer.add_char b ':';
            go x)
          kvs
  and seq : 'a. char -> char -> ('a -> unit) -> 'a list -> unit =
   fun op cl item l ->
    Buffer.add_char b op;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        item x)
      l;
    Buffer.add_char b cl
  in
  go v;
  Buffer.contents b

(* --- reading ------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else bad "unexpected end of input" in
  let at c = !pos < n && s.[!pos] = c in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if peek () <> c then bad "expected '%c' at offset %d" c !pos;
    incr pos
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    !pos > start
  in
  let number () =
    let start = !pos in
    if at '-' then incr pos;
    if at '0' then incr pos
    else if not (digits ()) then bad "bad number at offset %d" start;
    if at '.' then begin
      incr pos;
      if not (digits ()) then bad "bad fraction at offset %d" start
    end;
    if at 'e' || at 'E' then begin
      incr pos;
      if at '+' || at '-' then incr pos;
      if not (digits ()) then bad "bad exponent at offset %d" start
    end;
    Number (float_of_string (String.sub s start (!pos - start)))
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if h = "" || not (String.for_all hex h) then bad "bad \\u escape at offset %d" (!pos - 2);
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  (* A high surrogate followed by an escaped low one is one character;
     any other surrogate stands alone and becomes '?'. *)
  let unicode b =
    let hi = hex4 () in
    if hi >= 0xD800 && hi <= 0xDBFF && !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
    then begin
      let save = !pos in
      pos := !pos + 2;
      let lo = hex4 () in
      if lo >= 0xDC00 && lo <= 0xDFFF then
        Buffer.add_utf_8_uchar b (Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)))
      else begin
        pos := save;
        Buffer.add_char b '?'
      end
    end
    else if hi >= 0xD800 && hi <= 0xDFFF then Buffer.add_char b '?'
    else Buffer.add_utf_8_uchar b (Uchar.of_int hi)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' -> unicode b
          | e -> bad "bad escape \\%C at offset %d" e (!pos - 2));
          go ()
      | c when Char.code c < 0x20 ->
          bad "raw control byte %C in a string at offset %d" c (!pos - 1)
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else bad "bad literal at offset %d" !pos
  in
  let rec value depth =
    skip_ws ();
    match peek () with
    | '{' ->
        Obj
          (elements depth '}' (fun d ->
               skip_ws ();
               let k = string () in
               skip_ws ();
               expect ':';
               (k, value d)))
    | '[' -> List (elements depth ']' value)
    | '"' -> String (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> bad "unexpected %C at offset %d" c !pos
  and elements : 'a. int -> char -> (int -> 'a) -> 'a list =
   fun depth close item ->
    incr pos;
    if depth >= max_depth then bad "nesting deeper than %d levels" max_depth;
    skip_ws ();
    if at close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let x = item (depth + 1) in
        skip_ws ();
        match peek () with
        | ',' ->
            incr pos;
            go (x :: acc)
        | c when c = close ->
            incr pos;
            List.rev (x :: acc)
        | c -> bad "expected ',' or '%c', got %C at offset %d" close c !pos
      in
      go []
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then bad "trailing bytes at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Bad m -> Error m

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
