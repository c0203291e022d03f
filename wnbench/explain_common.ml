(* The explanation workloads: their inputs, made with the program's own
   generators ([Datagen.Rtfm], [Datagen.Workloads.fig11_pattern],
   [Datagen.Faults]), set-up, and the checks every explained tuple must
   pass. Shared by explain_run.exe and layers.exe, so both runners check
   outcomes the same way. *)

open Wnb_common.Common
module W = Whynot
module M = W.Explain.Modification

let day = 1440

(* The benchmark's own statement of each query, compiled for its
   Definition-2 checker. [write_inputs] checks that the program parses
   this text to the generator's patterns. *)

(* The RTFM process log's confirmed queries (Section 6.3.2). *)
let rtfm_query =
  [
    Seq ([ Ev "Create_fine"; Ev "Send_fine" ], Some day, Some (21 * day));
    Seq ([ Ev "Send_fine"; Ev "Insert_notification" ], Some 0, Some (14 * day));
    Seq
      ( [ Ev "Insert_notification";
          And ([ Ev "Add_penalty"; Ev "Payment" ], Some 10, Some 480) ],
        None, Some (60 * day) );
  ]

(* Figure 11's family at n = 8. *)
let and_query =
  [ And (List.init 8 (fun i -> Ev (Printf.sprintf "E%d" (i + 1))), Some 900, Some 1000) ]

type spec = {
  query : query list;
  patterns : W.Pattern.Ast.t list;  (* the generator's *)
  clean : W.Numeric.Prng.t -> int -> W.Events.Trace.t;  (* clean tuples *)
  rate : float;  (* fault rate and distance, as Datagen.Faults takes them *)
  distance : int;
  tuples : int;  (* non-answers per round *)
}

(* RTFM: the fault setting that Figures 7, 8 and 9 share (rate 0.1,
   distance 200; lib/experiments/rtfm_sweep.ml). AND(E1..E8): the
   setting of the repository's Figure 11 runs (rate 0.5, distance 400;
   bench/main.ml). *)
let spec = function
  | "explain_rtfm" ->
      { query = rtfm_query; patterns = W.Datagen.Rtfm.patterns;
        clean = (fun prng n -> W.Datagen.Rtfm.generate prng ~tuples:n);
        rate = 0.1; distance = 200; tuples = 3200 }
  | "explain_and" ->
      let p = W.Datagen.Workloads.fig11_pattern ~n:8 in
      { query = and_query; patterns = [ p ];
        clean = (fun prng n -> W.Datagen.Workloads.matching_trace prng [ p ] ~tuples:n);
        rate = 0.5; distance = 400; tuples = 256 }
  | w -> failwith ("unknown explain workload " ^ w)

let parse_patterns text =
  match W.Pattern.Parse.pattern_set text with Ok p -> p | Error e -> failwith e

(* The timestamps of [c]'s slots in tuple [t]. *)
let slots c t = Array.map (fun e -> W.Events.Tuple.find t e) c.names

let l1 a b =
  let d = ref 0 in
  Array.iteri (fun i x -> d := !d + abs (x - b.(i))) a;
  !d

(* Write [tuples] faulted tuples that fail the query (the why-not
   questions) as a CSV trace, and the query text. *)
let write_inputs sp ~seed ~tuples ~csv ~query =
  let c = compile sp.query in
  let text = String.concat ";\n" (List.map query_to_string sp.query) ^ "\n" in
  if not (List.equal W.Pattern.Ast.equal (parse_patterns text) sp.patterns) then
    failwith "the benchmark's query text does not parse to the generator's patterns";
  let prng = W.Numeric.Prng.create seed in
  let rec go acc n =
    if n >= tuples then List.rev acc
    else
      let acc, n =
        W.Events.Trace.fold
          (fun _ t (acc, n) ->
            if n >= tuples then (acc, n)
            else begin
              if not (satisfies c (slots c t)) then failwith "a clean tuple fails the query";
              let f = W.Datagen.Faults.tuple prng ~rate:sp.rate ~distance:sp.distance t in
              if satisfies c (slots c f) then (acc, n) else (f :: acc, n + 1)
            end)
          (sp.clean prng tuples) (acc, n)
      in
      go acc n
  in
  let faulted = go [] 0 in
  Out_channel.with_open_text csv (fun oc ->
      output_string oc "tuple_id,event,timestamp\n";
      List.iteri
        (fun i t ->
          Array.iteri (fun s v -> Printf.fprintf oc "q%05d,%s,%d\n" i c.names.(s) v) (slots c t))
        faulted);
  Out_channel.with_open_text query (fun oc -> output_string oc text)

(* Set-up: read the CSV trace, parse the query, encode it and run one
   consistency check. *)
let load ~csv ~query =
  let trace =
    match W.Events.Csv_io.read_trace csv with Ok t -> t | Error e -> failwith e
  in
  let patterns = parse_patterns (In_channel.with_open_text query In_channel.input_all) in
  let net = W.Tcn.Encode.pattern_set patterns in
  let report = W.Explain.Consistency.check_network net in
  if not report.W.Explain.Consistency.consistent then failwith "inconsistent query";
  (trace, patterns)

let explain patterns t =
  match W.Explain.Pipeline.explain patterns t with
  | W.Explain.Pipeline.Modify_timestamps r -> Ok r
  | _ -> Error "no timestamp repair"
  | exception e -> Error (Printexc.to_string e)

(* The checks of one outcome, outside any timed phase: the repaired
   tuple satisfies the query under the benchmark's Definition-2 checker,
   its [cost] is the L1 distance computed here, and the flat sweep of
   every binding with the flow solver finds the same optimum (the LP is
   totally unimodular, so the two exact solvers agree). None when every
   check passes, else what is wrong. *)
let check c patterns t (r : M.result) ~cost =
  let orig = slots c t and rep = slots c r.repaired in
  if not (satisfies c rep) then Some "repair does not match the query"
  else if l1 orig rep <> cost then Some (Printf.sprintf "cost %d, L1 distance %d" cost (l1 orig rep))
  else
    match M.explain ~engine:M.Flat ~solver:M.Flow patterns t with
    | Some f when f.M.cost = cost -> None
    | Some f -> Some (Printf.sprintf "cost %d, flat flow sweep %d" cost f.M.cost)
    | None -> Some "flat flow sweep finds no repair"
