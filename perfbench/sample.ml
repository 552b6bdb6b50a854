(* Latency samples and their summaries.  Every time is taken on the
   monotonic clock ([Obs.now_ns]); summaries are exact order statistics
   over the recorded samples, never bucketed. *)

module Obs = Xl_obs.Obs

type t = { mutable xs : float array; mutable n : int }

let create () = { xs = Array.make 256 0.; n = 0 }

let add t x =
  if t.n = Array.length t.xs then begin
    let bigger = Array.make (2 * t.n) 0. in
    Array.blit t.xs 0 bigger 0 t.n;
    t.xs <- bigger
  end;
  t.xs.(t.n) <- x;
  t.n <- t.n + 1

let append dst src =
  for i = 0 to src.n - 1 do
    add dst src.xs.(i)
  done

let sum t =
  let s = ref 0. in
  for i = 0 to t.n - 1 do
    s := !s +. t.xs.(i)
  done;
  !s

let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n

let sorted t =
  let a = Array.sub t.xs 0 t.n in
  Array.sort compare a;
  a

(* linear interpolation between order statistics, the q*(n-1)
   convention of [Obs.quantile_of] *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)
  end

let quantile t q = quantile_sorted (sorted t) q
let p50 t = quantile t 0.5

(* The p99 when at least ten samples lie beyond it. *)
let p99 t = if float_of_int t.n *. 0.01 >= 10. then Some (quantile t 0.99) else None

let median_of l =
  let t = create () in
  List.iter (add t) l;
  p50 t

let ms_of_ns ns = float_of_int ns /. 1e6
let since_ms t0 = ms_of_ns (Obs.now_ns () - t0)

(* time [f ()] on the monotonic clock: (result, elapsed ms) *)
let timed f =
  let t0 = Obs.now_ns () in
  let v = f () in
  (v, since_ms t0)

(* A dialogue's question latencies as reported: the gated [mean] and p95,
   and the printed median and p99 (the p99 only with ten samples beyond
   it).  The median is not gated: per-question times are bimodal (cheap
   structural questions, costly extent evaluations) and the median sits
   on the steep edge between the two, so it moves two-fold between
   seeded instances. *)
let answer_figures ~mean t =
  ( [ ("answer_mean_ms", mean); ("answer_p95_ms", quantile t 0.95) ],
    [ ("answer_samples", float_of_int t.n); ("answer_p50_ms", p50 t) ]
    @ match p99 t with Some v -> [ ("answer_p99_ms", v) ] | None -> [] )
