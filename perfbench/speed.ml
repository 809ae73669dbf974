(* Wall time corrected for the machine's speed of the moment.

   The benchmark shares a few cores of a host with other work, and the
   speed of a core swings by a third within seconds and drifts between
   runs minutes apart (a fixed arithmetic loop shows the same swings as
   the program, so they are the machine's, not the program's). A timed
   stretch is therefore cut into windows of about [window_s]; at each
   window boundary a fixed calibration loop runs and is timed, outside
   the measured time. A window's wall time is scaled by the reference
   calibration time over the mean of the calibrations at its two ends:
   on a core running at two thirds of its speed both the window and the
   calibration take half as long again, and the scaled time is what the
   window would have taken at reference speed. A change that makes the
   program faster shortens its windows and leaves the calibration alone,
   so it shows in full. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Calibration: a fixed loop of integer arithmetic and dependent random
   accesses to a 32 KiB table. It allocates nothing, so it does not depend
   on the program's heap, and its table stays in the core's own caches,
   so it does not depend on how much of the shared cache the program just
   used either. (A second part chasing through an 8 MiB table, added to
   follow memory contention, left ingest spread further, not less.) *)
let table_bits = 12
let table = Array.make (1 lsl table_bits) 0
let calibration_steps = 400_000

let calibrate () =
  let t0 = now_s () in
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to calibration_steps do
    x := ((!x * 1103515245) + 12345 + !acc) land 0x3fffffff;
    let i = !x land ((1 lsl table_bits) - 1) in
    acc := (!acc + table.(i)) land 0xffff;
    table.(i) <- !x
  done;
  ignore (Sys.opaque_identity !acc);
  now_s () -. t0

(* How long the calibration loop takes at reference speed: about its
   median between a workload's operations on a 2.0 GHz Xeon core of the
   2-core machine the bounds were set on. The figure only fixes the scale
   of normalised times; any constant would do, as long as it never
   changes between the runs being compared. *)
let reference_s = 0.0021

let window_s = 0.05

(* Scaled wall time of one window of [wall] seconds, with calibrations
   [before] and [after] at its ends. *)
let normalise ~wall ~before ~after = wall *. reference_s /. ((before +. after) /. 2.)

type t = {
  mutable win0 : float;  (** start of the open window *)
  mutable before : float;  (** calibration at its start *)
  mutable wall : float;  (** closed windows, as measured *)
  mutable norm : float;  (** closed windows, scaled *)
  mutable calibrations : float list;
}

let close t =
  let w = now_s () -. t.win0 in
  let c = calibrate () in
  t.wall <- t.wall +. w;
  t.norm <- t.norm +. normalise ~wall:w ~before:t.before ~after:c;
  t.before <- c;
  t.calibrations <- c :: t.calibrations;
  t.win0 <- now_s ()

(* The stopwatch of the stretch being timed, if any. *)
let active : t option ref = ref None

(* Called between operations: closes the open window once it is
   [window_s] long. Outside a timed stretch it does nothing. *)
let tick () =
  match !active with Some t when now_s () -. t.win0 >= window_s -> close t | _ -> ()

(* Wall seconds of the timed stretch so far, calibrations left out. *)
let elapsed () = match !active with Some t -> t.wall +. (now_s () -. t.win0) | None -> 0.

type timing = {
  wall_s : float;
  norm_s : float;
  speed : float;  (** reference over median calibration time: 1 at reference speed *)
}

(* Run [f] as one timed stretch. Stretches do not nest. *)
let time f =
  let before = calibrate () in
  let t = { win0 = now_s (); before; wall = 0.; norm = 0.; calibrations = [ before ] } in
  active := Some t;
  let finish () =
    close t;
    active := None
  in
  match f () with
  | v ->
    finish ();
    (v, { wall_s = t.wall; norm_s = t.norm; speed = reference_s /. Derived.middle t.calibrations })
  | exception e ->
    finish ();
    raise e
