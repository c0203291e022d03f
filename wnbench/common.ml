(* Shared pieces of the benchmark: a seeded PRNG, the ingest stream,
   a Definition-2 checker written independently of [whynot], summary
   statistics, /proc readers and the result line. Nothing here links the
   program under test. *)

(* --- PRNG: splitmix64, so inputs depend on the seed alone --- *)

module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.of_int seed }

  let next64 r =
    r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
    let z = r.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0, n) *)
  let int r n = Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int n))
  let range r lo hi = lo + int r (hi - lo + 1)
end

(* --- queries: the paper's Definition 1, and Definition 2 over slots --- *)

type query =
  | Ev of string
  | Seq of query list * int option * int option  (* ATLEAST, WITHIN *)
  | And of query list * int option * int option

let rec query_to_string = function
  | Ev e -> e
  | Seq (qs, lo, hi) -> compose "SEQ" qs lo hi
  | And (qs, lo, hi) -> compose "AND" qs lo hi

and compose op qs lo hi =
  let w kw = function None -> "" | Some v -> Printf.sprintf " %s %d" kw v in
  Printf.sprintf "%s(%s)%s%s" op
    (String.concat ", " (List.map query_to_string qs))
    (w "ATLEAST" lo) (w "WITHIN" hi)

let rec events_of = function
  | Ev e -> [ e ]
  | Seq (qs, _, _) | And (qs, _, _) -> List.concat_map events_of qs

(* A pattern set over numbered slots: [names.(i)] is the event of slot i. *)
type cq = CEv of int | CSeq of cq array * int * int | CAnd of cq array * int * int

type compiled = { names : string array; patterns : cq list; horizon : int }

let compile (qs : query list) =
  let names =
    List.fold_left
      (fun acc e -> if List.mem e acc then acc else acc @ [ e ])
      [] (List.concat_map events_of qs)
    |> Array.of_list
  in
  let slot e =
    let rec go i = if String.equal names.(i) e then i else go (i + 1) in
    go 0
  in
  let lo = Option.value ~default:0 and hi = Option.value ~default:max_int in
  let rec c = function
    | Ev e -> CEv (slot e)
    | Seq (qs, a, b) -> CSeq (Array.of_list (List.map c qs), lo a, hi b)
    | And (qs, a, b) -> CAnd (Array.of_list (List.map c qs), lo a, hi b)
  in
  let root_within = function
    | Ev _ -> 0
    | Seq (_, _, w) | And (_, _, w) -> Option.value ~default:max_int w
  in
  { names; patterns = List.map c qs;
    horizon = List.fold_left (fun m q -> max m (root_within q)) 0 qs }

let slot_of c name =
  let rec go i =
    if i >= Array.length c.names then -1
    else if String.equal c.names.(i) name then i
    else go (i + 1)
  in
  go 0

(* Definition 2: [ts.(i)] is the timestamp bound to slot i. A SEQ's
   children occur back to back (each ends no later than the next starts);
   every composition's span [first start, last end] lies in its window. *)
exception Fail

(* The end of [q]'s span; its start is left in [st.(0)]. *)
let rec span ts st = function
  | CEv i ->
      st.(0) <- ts.(i);
      ts.(i)
  | CSeq (qs, lo, hi) ->
      let stop = ref (span ts st qs.(0)) in
      let start = st.(0) in
      for k = 1 to Array.length qs - 1 do
        let e = span ts st qs.(k) in
        if !stop > st.(0) then raise Fail;
        stop := e
      done;
      window st start !stop lo hi
  | CAnd (qs, lo, hi) ->
      let start = ref max_int and stop = ref min_int in
      Array.iter
        (fun q ->
          let e = span ts st q in
          if st.(0) < !start then start := st.(0);
          if e > !stop then stop := e)
        qs;
      window st !start !stop lo hi

and window st s e lo hi =
  let len = e - s in
  if len < lo || len > hi then raise Fail;
  st.(0) <- s;
  e

let satisfies c ts =
  let st = [| 0 |] in
  match List.iter (fun p -> ignore (span ts st p)) c.patterns with
  | () -> true
  | exception Fail -> false

(* --- the ingest workload's event stream --- *)

(* One instance of the stream: slot, timestamp and a unique line id
   (carried as the tag "t<id>"). *)
type inst = { slot : int; ts : int; id : int }

let dense_query = [ Seq ([ Ev "A"; Ev "B"; Ev "C" ], None, Some 50) ]

type gen = { rng : Rng.t; mutable n : int; mutable clock : int }

let gen ~seed = { rng = Rng.make ((seed * 7919) + 1); n = 0; clock = 0 }

(* A, B, C uniformly, 1 or 2 time units apart: ~33 events per 50-unit
   window, about 20 matches of SEQ(A, B, C) per event. *)
let next g =
  let id = g.n in
  g.n <- g.n + 1;
  g.clock <- g.clock + Rng.range g.rng 1 2;
  { slot = Rng.int g.rng 3; ts = g.clock; id }

let add_line buf names (x : inst) =
  Buffer.add_string buf names.(x.slot);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int x.ts);
  Buffer.add_string buf ",t";
  Buffer.add_string buf (string_of_int x.id);
  Buffer.add_char buf '\n'

(* --- match fingerprints: an order-free multiset digest --- *)

let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x62A9D9ED799705F5 in
  let x = x lxor (x lsr 28) in
  x * 0x4BE98134A5976FD3

(* Two independent 62-bit hashes of a match given as the line ids bound
   to each slot, in slot order. Equal (count, sum h1, sum h2) digests of
   two multisets mean equal multisets but with probability ~2^-120. *)
let match_hashes ids =
  let h1 = ref 0x1234567 and h2 = ref 0x7654321 in
  Array.iter
    (fun id ->
      h1 := mix (!h1 + id);
      h2 := mix ((!h2 * 31) + id + 0x55))
    ids;
  (!h1, !h2)

type digest = { mutable count : int; mutable s1 : int; mutable s2 : int }

let digest () = { count = 0; s1 = 0; s2 = 0 }
let digest_add d ids =
  let h1, h2 = match_hashes ids in
  d.count <- d.count + 1;
  d.s1 <- d.s1 + h1;
  d.s2 <- d.s2 + h2

let digest_equal a b = a.count = b.count && a.s1 = b.s1 && a.s2 = b.s2
let digest_reset d = d.count <- 0; d.s1 <- 0; d.s2 <- 0

(* --- the enumerator: every match of Definition 2, from the stream --- *)

(* The instances of the last [horizon] time units. A new instance is
   combined with every choice of earlier instances for the other slots;
   each combination that satisfies the query is a match completed by the
   new instance's line. *)
module Enum = struct
  type t = { c : compiled; mutable hist : inst list; ts : int array; ids : int array }

  let create c =
    let k = Array.length c.names in
    { c; hist = []; ts = Array.make k 0; ids = Array.make k 0 }

  let feed e (x : inst) (emit : int array -> unit) =
    let h = List.filter (fun (y : inst) -> y.ts >= x.ts - e.c.horizon) e.hist in
    let k = Array.length e.c.names in
    e.ts.(x.slot) <- x.ts;
    e.ids.(x.slot) <- x.id;
    let rec pick s =
      if s = k then (if satisfies e.c e.ts then emit e.ids)
      else if s = x.slot then pick (s + 1)
      else
        List.iter
          (fun (y : inst) ->
            if y.slot = s then begin
              e.ts.(s) <- y.ts;
              e.ids.(s) <- y.id;
              pick (s + 1)
            end)
          h
    in
    pick 0;
    e.hist <- x :: h
end

(* --- statistics --- *)

(* Linear-interpolated quantile of an unsorted sample (copied, sorted). *)
let quantile a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median a = quantile a 0.5

(* Growable float sample. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add s v =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0. in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  let to_array s = Array.sub s.a 0 s.n
end

(* The timed phase cut into windows, two ways: by time (one second) for
   the op rate and the CPU per op, and by count ([size] requests, at
   least 100, so ten requests lie above each window's p90) for latency.
   Rate and CPU per op are what the run sustains in three windows out of
   four: the first quartile of the window rates, the third of the window
   CPU per op. The VMs this runs on speed up by as much as 2x in bursts
   of a few seconds (a fixed CPU loop reads 130k-290k iterations a
   second); the slow-side quartile reads the steady baseline, while a
   mean or a median moves with the share of bursts. Latency is the median
   over windows of each window's own p50 and p90: a window's p90 already
   reads its slow tail, and a few windows whose tail a disturbance
   inflates must not set the figure. The last, partial window is dropped
   unless it is the only one. *)
module Windows = struct
  type t = {
    size : int;
    cpu : unit -> float;  (* seconds of CPU of the process under test *)
    lat : float array;
    mutable n : int;
    mutable ops : int;
    mutable t0 : float;
    mutable c0 : float;
    rates : Samples.t;
    cpus : Samples.t;
    p50s : Samples.t;
    p90s : Samples.t;
  }

  let span = 1.0

  let create ~size ~cpu =
    { size; cpu; lat = Array.make size 0.; n = 0; ops = 0; t0 = 0.; c0 = 0.;
      rates = Samples.create (); cpus = Samples.create (); p50s = Samples.create ();
      p90s = Samples.create () }

  let start w =
    w.n <- 0;
    w.ops <- 0;
    w.t0 <- Unix.gettimeofday ();
    w.c0 <- w.cpu ()

  let close_time w t =
    let c = w.cpu () in
    Samples.add w.rates (float_of_int w.ops /. (t -. w.t0));
    Samples.add w.cpus ((c -. w.c0) /. float_of_int w.ops *. 1e6);
    w.ops <- 0;
    w.t0 <- t;
    w.c0 <- c

  let close_count w =
    let l = Array.sub w.lat 0 w.n in
    Samples.add w.p50s (median l);
    Samples.add w.p90s (quantile l 0.9);
    w.n <- 0

  let add w ~ops ~lat_ms =
    w.lat.(w.n) <- lat_ms;
    w.n <- w.n + 1;
    w.ops <- w.ops + ops;
    if w.n = w.size then close_count w;
    let t = Unix.gettimeofday () in
    if t -. w.t0 >= span then close_time w t

  (* (time windows, rate, CPU us per op, p50, p90) *)
  let summary w =
    if w.rates.Samples.n = 0 && w.ops > 0 then close_time w (Unix.gettimeofday ());
    if w.p50s.Samples.n = 0 && w.n > 0 then close_count w;
    let q s p = quantile (Samples.to_array s) p in
    (w.rates.Samples.n, q w.rates 0.25, q w.cpus 0.75, q w.p50s 0.5, q w.p90s 0.5)
end

(* --- clocks and /proc --- *)

let now () = Unix.gettimeofday ()

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* "Key:   value kB" fields of /proc/<pid>/status and /proc/<pid>/io *)
let proc_field text key =
  let lines = String.split_on_char '\n' text in
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.equal (String.sub l 0 i) key ->
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          let v = match String.index_opt v ' ' with Some j -> String.sub v 0 j | None -> v in
          int_of_string_opt v
      | _ -> None)
    lines

let status_field pid key =
  Option.bind (read_file (Printf.sprintf "/proc/%s/status" pid)) (fun t -> proc_field t key)

let io_field pid key =
  Option.bind (read_file (Printf.sprintf "/proc/%s/io" pid)) (fun t -> proc_field t key)

(* utime + stime of a whole process, in seconds (USER_HZ = 100) *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%s/stat" pid) with
  | None -> nan
  | Some s ->
      let close = String.rindex s ')' in
      let fields =
        String.split_on_char ' ' (String.sub s (close + 2) (String.length s - close - 2))
      in
      let f i = float_of_string (List.nth fields i) in
      (f 11 +. f 12) /. 100.

(* voluntary context switches summed over every thread of a process *)
let voluntary_switches pid =
  let dir = Printf.sprintf "/proc/%s/task" pid in
  match Sys.readdir dir with
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match
            Option.bind
              (read_file (Printf.sprintf "%s/%s/status" dir tid))
              (fun t -> proc_field t "voluntary_ctxt_switches")
          with
          | Some v -> acc + v
          | None -> acc)
        0 tids
  | exception Sys_error _ -> 0

let peak_rss_mb pid =
  match status_field pid "VmHWM" with Some kb -> float_of_int kb /. 1024. | None -> nan

(* --- the result object each runner prints as its last line --- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* all digits; a ratio with no base (0/0) reads 0 *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed ?(notes = []) metrics =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value) x.unit_)
      metrics
  in
  let ns = List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) notes in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \"notes\": {%s}}"
    correct attempted failed (String.concat ", " ms) (String.concat ", " ns)

(* --- command line: --key value pairs --- *)

let args ?(from = 1) () =
  let a = Sys.argv in
  let rec go i acc =
    if i + 1 >= Array.length a then acc
    else go (i + 2) ((a.(i), a.(i + 1)) :: acc)
  in
  go from []

let arg ?default l key =
  match (List.assoc_opt ("--" ^ key) l, default) with
  | Some v, _ -> v
  | None, Some d -> d
  | None, None -> failwith ("missing --" ^ key)
