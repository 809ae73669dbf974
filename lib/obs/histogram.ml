(* Values < [exact_limit] get their own bucket; larger values share an
   octave [2^o, 2^(o+1)) split into [subs] linear sub-buckets. With
   subs = 16 the widest bucket spans 1/16th of its octave, so a quantile
   interpolated within it is off by at most ~6% of the true value. *)

let sub_bits = 4
let subs = 1 lsl sub_bits
let exact_limit = 2 * subs (* 32: values 0..31 are exact *)

(* Octaves 5..62 (values 32 .. 2^63-1), [subs] buckets each. *)
let nbuckets = exact_limit + ((63 - (sub_bits + 1)) * subs)

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { buckets = Array.make nbuckets 0; count = 0; sum = 0; min_v = max_int; max_v = 0 }

let log2_floor v =
  let o = ref 0 and x = ref v in
  while !x >= 2 do
    incr o;
    x := !x lsr 1
  done;
  !o

let bucket_of v =
  if v < exact_limit then v
  else begin
    let o = log2_floor v in
    let sub = (v lsr (o - sub_bits)) land (subs - 1) in
    exact_limit + ((o - sub_bits - 1) * subs) + sub
  end

(* Inclusive lower bound of bucket [i], and exclusive upper bound. *)
let bucket_lo i =
  if i < exact_limit then i
  else begin
    let o = sub_bits + 1 + ((i - exact_limit) / subs) in
    let sub = (i - exact_limit) mod subs in
    (1 lsl o) lor (sub lsl (o - sub_bits))
  end

let bucket_hi i =
  if i < exact_limit then i + 1
  else begin
    let o = sub_bits + 1 + ((i - exact_limit) / subs) in
    bucket_lo i + (1 lsl (o - sub_bits))
  end

let record t v =
  let v = if v < 0 then 0 else v in
  t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t = if t.count = 0 then nan else float_of_int t.sum /. float_of_int t.count

let percentile t q =
  if t.count = 0 then nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int t.count in
    let rec find i seen =
      if i >= nbuckets then float_of_int t.max_v
      else begin
        let n = t.buckets.(i) in
        if n = 0 then find (i + 1) seen
        else begin
          let seen' = seen + n in
          if float_of_int seen' >= rank then begin
            (* Interpolate within the bucket, clamped to the observed
               extremes so every quantile lies in [min, max]. *)
            let lo = float_of_int (max (bucket_lo i) (min_value t)) in
            let hi = float_of_int (min (bucket_hi i) t.max_v) in
            let frac =
              if n = 0 then 0.0 else (rank -. float_of_int seen) /. float_of_int n
            in
            let frac = Float.max 0.0 (Float.min 1.0 frac) in
            Float.min hi (lo +. (frac *. (hi -. lo)))
          end
          else find (i + 1) seen'
        end
      end
    in
    find 0 0
  end

let reset t =
  Array.fill t.buckets 0 nbuckets 0;
  t.count <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Int t.sum);
      ("min", Json.Int (min_value t));
      ("max", Json.Int t.max_v);
      ("mean", Json.Float (mean t));
      ("p50", Json.Float (percentile t 0.50));
      ("p90", Json.Float (percentile t 0.90));
      ("p99", Json.Float (percentile t 0.99));
    ]

let pp ppf t =
  if t.count = 0 then Format.fprintf ppf "count=0"
  else
    Format.fprintf ppf "count=%d mean=%.1f p50=%.0f p90=%.0f p99=%.0f max=%d" t.count (mean t)
      (percentile t 0.50) (percentile t 0.90) (percentile t 0.99) t.max_v
