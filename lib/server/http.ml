(** See the interface.  One invariant matters: any defect in the bytes a
    client sends surfaces as [Parse_error] with an offset — never any
    other exception, never a hang past the size limits — because the
    server's fault-injection test fires garbage at this code and expects
    a 400 every time. *)

type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

type parse_error = { offset : int; msg : string }

exception Parse_error of parse_error

let fail ~offset msg = raise (Parse_error { offset; msg })

let max_request_line = 8 * 1024
let max_header_bytes = 64 * 1024
let max_body_bytes = 16 * 1024 * 1024

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;  (* unconsumed bytes are buf.[lo .. hi) *)
  mutable hi : int;
  mutable base : int;  (* request-relative offset of buf.[lo] *)
}

let reader fd = { fd; buf = Bytes.create 8192; lo = 0; hi = 0; base = 0 }

(* refill the window; true on bytes read, false on EOF *)
let refill r =
  if r.lo = r.hi then begin
    r.lo <- 0;
    r.hi <- 0
  end
  else if r.hi = Bytes.length r.buf then begin
    Bytes.blit r.buf r.lo r.buf 0 (r.hi - r.lo);
    r.hi <- r.hi - r.lo;
    r.lo <- 0
  end;
  let n = Unix.read r.fd r.buf r.hi (Bytes.length r.buf - r.hi) in
  if n > 0 then r.hi <- r.hi + n;
  n > 0

(* one line up to LF, CR stripped; [None] on EOF with nothing consumed *)
let read_line r ~limit ~what =
  let b = Buffer.create 64 in
  let rec go () =
    if r.lo < r.hi then begin
      let c = Bytes.get r.buf r.lo in
      r.lo <- r.lo + 1;
      r.base <- r.base + 1;
      if c = '\n' then Buffer.contents b
      else begin
        if c <> '\r' then Buffer.add_char b c;
        if Buffer.length b > limit then
          fail ~offset:r.base (Printf.sprintf "%s too long" what)
        else go ()
      end
    end
    else if refill r then go ()
    else fail ~offset:r.base (Printf.sprintf "truncated request in %s" what)
  in
  if r.lo >= r.hi && not (refill r) then None else Some (go ())

let read_exact r n ~what =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if r.lo < r.hi then begin
      let take = min (n - !filled) (r.hi - r.lo) in
      Bytes.blit r.buf r.lo out !filled take;
      r.lo <- r.lo + take;
      r.base <- r.base + take;
      filled := !filled + take
    end
    else if not (refill r) then
      fail ~offset:r.base (Printf.sprintf "truncated request in %s" what)
  done;
  Bytes.unsafe_to_string out

let split_request_line r line =
  match String.split_on_char ' ' line with
  | [ meth; path; version ] ->
    if not (String.length version >= 8 && String.sub version 0 7 = "HTTP/1.") then
      fail ~offset:r.base (Printf.sprintf "unsupported version %S" version);
    if meth = "" || path = "" then fail ~offset:r.base "empty method or target";
    String.iter
      (fun c ->
        if not ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')) then
          fail ~offset:r.base (Printf.sprintf "bad method %S" meth))
      meth;
    (String.uppercase_ascii meth, path)
  | _ -> fail ~offset:r.base (Printf.sprintf "bad request line %S" line)

let parse_header r line =
  match String.index_opt line ':' with
  | None | Some 0 -> fail ~offset:r.base (Printf.sprintf "bad header %S" line)
  | Some i ->
    ( String.lowercase_ascii (String.sub line 0 i),
      String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let rec read_request r =
  r.base <- 0;
  match read_line r ~limit:max_request_line ~what:"request line" with
  | None -> None
  | Some "" ->
    (* tolerate one stray blank line between keep-alive requests *)
    (match read_line r ~limit:max_request_line ~what:"request line" with
    | None -> None
    | Some "" -> fail ~offset:r.base "blank request line"
    | Some line -> Some (finish r line))
  | Some line -> Some (finish r line)

and finish r line =
  let meth, path = split_request_line r line in
  let headers = ref [] in
  let header_budget = ref max_header_bytes in
  let rec headers_loop () =
    match read_line r ~limit:max_request_line ~what:"headers" with
    | None -> fail ~offset:r.base "truncated request in headers"
    | Some "" -> ()
    | Some line ->
      header_budget := !header_budget - String.length line;
      if !header_budget < 0 then fail ~offset:r.base "headers too long";
      headers := parse_header r line :: !headers;
      headers_loop ()
  in
  headers_loop ();
  let headers = List.rev !headers in
  (match List.assoc_opt "transfer-encoding" headers with
  | Some _ -> fail ~offset:r.base "transfer-encoding unsupported"
  | None -> ());
  let body =
    match List.assoc_opt "content-length" headers with
    | None -> ""
    | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 0 && n <= max_body_bytes -> read_exact r n ~what:"body"
      | Some _ -> fail ~offset:r.base (Printf.sprintf "body over %d bytes" max_body_bytes)
      | None -> fail ~offset:r.base (Printf.sprintf "bad content-length %S" v))
  in
  { meth; path; headers; body }

let header req name = List.assoc_opt (String.lowercase_ascii name) req.headers

let status_text = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 409 -> "Conflict"
  | 422 -> "Unprocessable Entity"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

let write_response fd ~status ?(content_type = "application/json") body =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n"
      status (status_text status) content_type (String.length body)
  in
  (* the client may already be gone; its loss, not the server's *)
  try write_all fd (head ^ body) with Unix.Unix_error _ -> ()
