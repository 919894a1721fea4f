let min_beyond = 10

let rank ~n p =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9)) in
  max 1 (min n r)

let beyond ~n p = n - rank ~n p
let tail_supported ~n p = beyond ~n p >= min_beyond

let min_samples_for p =
  let rec go n = if tail_supported ~n p then n else go (n + 1) in
  go 1

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let percentile a p = a.(rank ~n:(Array.length a) p - 1)
let median xs = percentile (sorted xs) 50.

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    (* statistics.quantiles(method="exclusive"): m = n + 1, the i-th
       cut point sits at j = i*m // 4 clamped to [1, n-1] and
       interpolates data[j-1] and data[j] by delta = i*m - 4*j. *)
    let cut i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (4 * j) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)
