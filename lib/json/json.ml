(** The one JSON codec of the repo.  See the interface; the parser is
    the trace-analysis reader promoted out of [lib/obs], the serializer
    is new with the session server (server responses, telemetry export
    and the benchmark's report all render through it). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string * int

type state = { src : string; mutable pos : int }

let error st msg = raise (Malformed (msg, st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected %C" c)

let parse_literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.equal (String.sub st.src st.pos n) word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else error st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then error st "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' -> (
      if st.pos >= String.length st.src then error st "unterminated escape";
      let e = st.src.[st.pos] in
      st.pos <- st.pos + 1;
      (match e with
      | '"' -> Buffer.add_char b '"'
      | '\\' -> Buffer.add_char b '\\'
      | '/' -> Buffer.add_char b '/'
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'n' -> Buffer.add_char b '\n'
      | 'r' -> Buffer.add_char b '\r'
      | 't' -> Buffer.add_char b '\t'
      | 'u' ->
        if st.pos + 4 > String.length st.src then error st "short \\u escape";
        let hex = String.sub st.src st.pos 4 in
        st.pos <- st.pos + 4;
        let code =
          match int_of_string_opt ("0x" ^ hex) with
          | Some c -> c
          | None -> error st "bad \\u escape"
        in
        (* decode the BMP code point as UTF-8; analysis only ever
           compares ASCII names, so surrogate pairs are not recombined *)
        if code < 0x80 then Buffer.add_char b (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
      | _ -> error st "bad escape");
      go ())
    | c when Char.code c < 0x20 -> error st "raw control char in string"
    | c ->
      Buffer.add_char b c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some f -> Num f
  | None -> error st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    expect st '{';
    skip_ws st;
    if peek st = Some '}' then begin
      expect st '}';
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          expect st ',';
          members ((k, v) :: acc)
        | Some '}' ->
          expect st '}';
          Obj (List.rev ((k, v) :: acc))
        | _ -> error st "expected ',' or '}'"
      in
      members []
    end
  | Some '[' ->
    expect st '[';
    skip_ws st;
    if peek st = Some ']' then begin
      expect st ']';
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          expect st ',';
          elements (v :: acc)
        | Some ']' ->
          expect st ']';
          Arr (List.rev (v :: acc))
        | _ -> error st "expected ',' or ']'"
      in
      elements []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected %C" c)

let parse_at (s : string) : (t, string * int) result =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos = String.length s then Ok v
    else Error ("trailing garbage", st.pos)
  | exception Malformed (msg, pos) -> Error (msg, pos)

let parse (s : string) : (t, string) result =
  match parse_at s with
  | Ok v -> Ok v
  | Error (msg, pos) -> Error (Printf.sprintf "%s at byte %d" msg pos)

(* ---------- serialization ------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if Float.is_finite f then
    (* shortest representation that round-trips through the parser *)
    let s = Printf.sprintf "%.12g" f in
    if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f
  else "null"

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> Buffer.add_string b (number_to_string f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\":";
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ---------- builders ----------------------------------------------------- *)

let int n = Num (float_of_int n)
let str s = Str s
let list f xs = Arr (List.map f xs)

(* ---------- accessors ---------------------------------------------------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num f -> Some f | _ -> None

(* exactly-representable integers only: non-integral and non-finite
   numbers are a wire error, not something to round away *)
let to_int_opt = function
  | Num f when Float.is_integer f && Float.abs f <= 9007199254740992. ->
    Some (int_of_float f)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function Arr xs -> Some xs | _ -> None
let mem_str key j = Option.bind (member key j) to_string_opt
let mem_int key j = Option.bind (member key j) to_int_opt
let mem_float key j = Option.bind (member key j) to_float_opt
let mem_bool key j = Option.bind (member key j) to_bool_opt
let mem_list key j = Option.bind (member key j) to_list_opt
