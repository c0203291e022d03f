(* A linear HTTP/1.1 keep-alive client for the load generator.

   One socket and one reused receive buffer per connection. A response is
   framed by its Content-Length: the head is scanned once for the blank
   line (resuming where the last scan stopped), and the body is then read
   straight into the buffer, which only ever doubles. Nothing is copied
   per read, so a 600 KB response costs O(size). The server closes a
   connection after its keep-alive cap ("Connection: close" on the last
   response); the client then reconnects before its next request. *)

type t = {
  port : int;
  mutable fd : Unix.file_descr option;
  mutable buf : Bytes.t;
  mutable spare : Bytes.t;  (* the previous response, while it is checked *)
  mutable len : int;  (* bytes buffered *)
  mutable scanned : int;  (* head scan resumes here *)
  mutable head_end : int;  (* -1 until the head is complete *)
  mutable body_len : int;
  mutable closing : bool;  (* the response said Connection: close *)
  mutable status : int;
  out : Buffer.t;
  mutable reconnects : int;
}

exception Failed of string

let connect_fd port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e -> Unix.close fd; raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let create port =
  { port; fd = None; buf = Bytes.create 65536; spare = Bytes.create 65536; len = 0; scanned = 0; head_end = -1;
    body_len = 0; closing = false; status = 0; out = Buffer.create 16384; reconnects = 0 }

let fd c =
  match c.fd with
  | Some fd -> fd
  | None ->
      let fd = connect_fd c.port in
      c.fd <- Some fd;
      fd

let close c =
  match c.fd with
  | Some fd -> c.fd <- None; (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

(* Send one request; the body is taken from [body] (a Buffer, not copied
   into a string). *)
let send c ~meth ~path (body : Buffer.t) =
  if c.closing then begin
    close c;
    c.closing <- false;
    c.reconnects <- c.reconnects + 1
  end;
  let fd = fd c in
  Buffer.clear c.out;
  Buffer.add_string c.out meth;
  Buffer.add_char c.out ' ';
  Buffer.add_string c.out path;
  Buffer.add_string c.out " HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\nContent-Length: ";
  Buffer.add_string c.out (string_of_int (Buffer.length body));
  Buffer.add_string c.out "\r\n\r\n";
  Buffer.add_buffer c.out body;
  let b = Buffer.to_bytes c.out in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done;
  c.len <- 0;
  c.scanned <- 0;
  c.head_end <- -1;
  c.body_len <- 0

(* [b] at [off] spells [s] (lowercase), ignoring ASCII case *)
let lower_eq b off s =
  let n = String.length s in
  off + n <= Bytes.length b
  &&
  let i = ref 0 in
  while !i < n && Char.lowercase_ascii (Bytes.unsafe_get b (off + !i)) = String.unsafe_get s !i do
    incr i
  done;
  !i = n

(* Parse the head [0, head_end): status, Content-Length, Connection. *)
let parse_head c =
  let b = c.buf in
  let status =
    if c.head_end < 12 || not (lower_eq b 0 "http/1.") then raise (Failed "bad status line")
    else int_of_string (Bytes.sub_string b 9 3)
  in
  let cl = ref (-1) in
  let i = ref 0 in
  while !i < c.head_end do
    if Bytes.get b !i = '\n' then begin
      let s = !i + 1 in
      if lower_eq b s "content-length:" then begin
        let j = ref (s + 15) in
        while Bytes.get b !j = ' ' do incr j done;
        let v = ref 0 in
        while Bytes.get b !j >= '0' && Bytes.get b !j <= '9' do
          v := (!v * 10) + Char.code (Bytes.get b !j) - 48;
          incr j
        done;
        cl := !v
      end
      else if lower_eq b s "connection:" then begin
        let j = ref (s + 11) in
        while Bytes.get b !j = ' ' do incr j done;
        if lower_eq b !j "close" then c.closing <- true
      end
    end;
    incr i
  done;
  if !cl < 0 then raise (Failed "response without Content-Length");
  c.body_len <- !cl;
  status

(* Read what the socket has; [Some status] once the response is whole.
   The body is then [buf.(head_end) .. head_end + body_len). *)
let recv c =
  let fd = match c.fd with Some fd -> fd | None -> raise (Failed "not connected") in
  if c.len = Bytes.length c.buf then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.len;
    c.buf <- b
  end;
  let n = Unix.read fd c.buf c.len (Bytes.length c.buf - c.len) in
  if n = 0 then raise (Failed "connection closed mid-response");
  c.len <- c.len + n;
  if c.head_end < 0 then begin
    let b = c.buf in
    let i = ref (max 0 (c.scanned - 3)) in
    while c.head_end < 0 && !i + 3 < c.len do
      if Bytes.get b !i = '\r' && Bytes.get b (!i + 1) = '\n'
         && Bytes.get b (!i + 2) = '\r' && Bytes.get b (!i + 3) = '\n'
      then c.head_end <- !i + 4
      else incr i
    done;
    c.scanned <- c.len;
    if c.head_end >= 0 then c.status <- parse_head c
  end;
  if c.head_end >= 0 && c.len >= c.head_end + c.body_len then begin
    if c.len > c.head_end + c.body_len then raise (Failed "bytes past the response");
    Some c.status
  end
  else None

(* Blocking request-response on one connection. *)
let request c ~meth ~path body =
  send c ~meth ~path body;
  let rec wait () = match recv c with Some s -> s | None -> wait () in
  wait ()

let body_string c = Bytes.sub_string c.buf c.head_end c.body_len

(* Hand the whole response out and receive into the spare buffer from
   now on, so the caller can send its next request before looking at
   this one. Returns (bytes, body offset, body length); give the bytes
   back with {!give_back} once done. *)
let take c =
  let b = c.buf in
  c.buf <- c.spare;
  (b, c.head_end, c.body_len)

let give_back c b = c.spare <- b
