module Counter = struct
  type t = { mutable value : int }

  let create () = { value = 0 }
  let incr t = t.value <- t.value + 1
  let add t n = t.value <- t.value + n
  let value t = t.value
  let reset t = t.value <- 0
end

module Summary = struct
  (* The float accumulators live in an all-float record, stored flat and
     updated in place: observing allocates nothing. *)
  type acc = {
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  type t = { mutable count : int; f : acc }

  let create () =
    {
      count = 0;
      f = { mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0 };
    }

  let observe t x =
    t.count <- t.count + 1;
    let f = t.f in
    let delta = x -. f.mean in
    f.mean <- f.mean +. (delta /. float_of_int t.count);
    f.m2 <- f.m2 +. (delta *. (x -. f.mean));
    if x < f.min then f.min <- x;
    if x > f.max then f.max <- x;
    f.total <- f.total +. x

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.f.mean
  let variance t = if t.count < 2 then 0.0 else t.f.m2 /. float_of_int (t.count - 1)
  let stddev t = sqrt (variance t)
  let min t = if t.count = 0 then None else Some t.f.min
  let max t = if t.count = 0 then None else Some t.f.max
  let total t = t.f.total

  let reset t =
    t.count <- 0;
    t.f.mean <- 0.0;
    t.f.m2 <- 0.0;
    t.f.min <- infinity;
    t.f.max <- neg_infinity;
    t.f.total <- 0.0

  let pp ppf t =
    if t.count = 0 then Fmt.string ppf "(empty)"
    else
      Fmt.pf ppf "n=%d mean=%.3g sd=%.3g min=%.3g max=%.3g" t.count (mean t)
        (stddev t) t.f.min t.f.max
end

module Quantiles = struct
  (* A deterministic compacting quantile sketch (KLL-shaped, but with no
     randomness): level [i] holds at most [k] values, each standing for 2^i
     observations.  When a level overflows it is sorted and every other
     value survives to the next level, the kept parity alternating per
     level so the systematic half-rank bias cancels across compactions
     instead of accumulating.  Memory is O(k log (n/k)) no matter how many
     observations stream through; with n <= k observations the sketch is
     exact.  Everything — observe, compact, merge — is a pure function of
     the observation order, so sketches folded in a fixed order are
     byte-identical at any job count (the fleet driver's requirement). *)

  type t = {
    k : int;
    mutable levels : float array array;  (* levels.(i): buffer, unsorted *)
    mutable sizes : int array;  (* fill of each level *)
    mutable flips : bool array;  (* next kept parity per level *)
    mutable count : int;  (* observations absorbed (= total weight) *)
  }

  let default_k = 256

  let create ?(k = default_k) () =
    if k < 2 then invalid_arg "Quantiles.create: k < 2";
    {
      k;
      levels = [| Array.make k 0.0 |];
      sizes = [| 0 |];
      flips = [| false |];
      count = 0;
    }

  let nlevels t = Array.length t.sizes

  let ensure_level t i =
    if i >= nlevels t then begin
      let n = nlevels t in
      let grow_to = i + 1 in
      let levels = Array.make grow_to [||] in
      let sizes = Array.make grow_to 0 in
      let flips = Array.make grow_to false in
      Array.blit t.levels 0 levels 0 n;
      Array.blit t.sizes 0 sizes 0 n;
      Array.blit t.flips 0 flips 0 n;
      for j = n to grow_to - 1 do
        levels.(j) <- Array.make t.k 0.0
      done;
      t.levels <- levels;
      t.sizes <- sizes;
      t.flips <- flips
    end

  (* Insert one value carrying weight 2^i at level [i], compacting first if
     the level is full.  Compaction sorts the level, promotes every other
     value of the largest even prefix to level i+1 (where each survivor's
     doubled weight keeps total weight exact), and leaves the odd leftover
     — the largest value — behind at this level. *)
  let rec push t i x =
    ensure_level t i;
    if t.sizes.(i) = t.k then compact t i;
    t.levels.(i).(t.sizes.(i)) <- x;
    t.sizes.(i) <- t.sizes.(i) + 1

  and compact t i =
    let buf = t.levels.(i) in
    let size = t.sizes.(i) in
    let slice = Array.sub buf 0 size in
    Array.sort Float.compare slice;
    let even = size - (size land 1) in
    let start = if t.flips.(i) then 1 else 0 in
    t.flips.(i) <- not t.flips.(i);
    t.sizes.(i) <- 0;
    if size > even then begin
      buf.(0) <- slice.(even);
      t.sizes.(i) <- 1
    end;
    let j = ref start in
    while !j < even do
      push t (i + 1) slice.(!j);
      j := !j + 2
    done

  let observe t x =
    push t 0 x;
    t.count <- t.count + 1

  let count t = t.count

  let space t =
    Array.fold_left ( + ) 0 t.sizes

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Quantiles.quantile";
    if t.count = 0 then 0.0
    else begin
      let items = Array.make (space t) (0.0, 0) in
      let n = ref 0 in
      for i = 0 to nlevels t - 1 do
        let w = 1 lsl i in
        for j = 0 to t.sizes.(i) - 1 do
          items.(!n) <- (t.levels.(i).(j), w);
          incr n
        done
      done;
      Array.sort (fun (a, _) (b, _) -> Float.compare a b) items;
      (* Same nearest-rank convention as [Histogram.quantile]: the value
         whose cumulative weight first exceeds round (q * (W - 1)). *)
      let target = int_of_float (Float.round (q *. float_of_int (t.count - 1))) in
      let rec go i seen =
        if i >= Array.length items then fst items.(Array.length items - 1)
        else begin
          let v, w = items.(i) in
          let seen' = seen + w in
          if seen' > target then v else go (i + 1) seen'
        end
      in
      go 0 0
    end

  let merge a b =
    if a.k <> b.k then invalid_arg "Quantiles.merge: sketches of different k";
    let t = create ~k:a.k () in
    let absorb src =
      for i = 0 to nlevels src - 1 do
        for j = 0 to src.sizes.(i) - 1 do
          push t i src.levels.(i).(j)
        done
      done
    in
    absorb a;
    absorb b;
    t.count <- a.count + b.count;
    t

  let reset t =
    t.levels <- [| Array.make t.k 0.0 |];
    t.sizes <- [| 0 |];
    t.flips <- [| false |];
    t.count <- 0
end

module Histogram = struct
  (* Buckets are geometric with ratio 2: bucket 0 holds [0, 1), bucket i>0
     holds [2^(i-1), 2^i).  62 buckets cover the full positive int range. *)
  let nbuckets = 64

  (* All-float, so the sum is stored flat and updated in place. *)
  type sum = { mutable sum : float }
  type t = { counts : int array; mutable count : int; s : sum }

  let create () = { counts = Array.make nbuckets 0; count = 0; s = { sum = 0.0 } }

  let bucket_of x =
    if x < 1.0 then 0
    else begin
      let i = 1 + int_of_float (Float.log2 x) in
      Stdlib.min i (nbuckets - 1)
    end

  let bounds i =
    if i = 0 then (0.0, 1.0) else (Float.pow 2.0 (float_of_int (i - 1)), Float.pow 2.0 (float_of_int i))

  (* [x] reaches [bucket_of] as the caller boxed it: a float computed here
     and passed on would be boxed again. *)
  let record t b x =
    t.counts.(b) <- t.counts.(b) + 1;
    t.count <- t.count + 1;
    t.s.sum <- t.s.sum +. x

  let observe t x = if x < 0.0 then record t 0 0.0 else record t (bucket_of x) x
  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.s.sum /. float_of_int t.count

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile";
    if t.count = 0 then 0.0
    else begin
      let target = int_of_float (Float.round (q *. float_of_int (t.count - 1))) in
      let rec go i seen =
        if i >= nbuckets then fst (bounds (nbuckets - 1))
        else begin
          let seen' = seen + t.counts.(i) in
          if seen' > target then begin
            let lo, hi = bounds i in
            if i = 0 then hi /. 2.0 else sqrt (lo *. hi)
          end
          else go (i + 1) seen'
        end
      in
      go 0 0
    end

  let buckets t =
    let acc = ref [] in
    for i = nbuckets - 1 downto 0 do
      if t.counts.(i) > 0 then begin
        let lo, hi = bounds i in
        acc := (lo, hi, t.counts.(i)) :: !acc
      end
    done;
    !acc

  let merge a b =
    let t = create () in
    Array.blit a.counts 0 t.counts 0 nbuckets;
    for i = 0 to nbuckets - 1 do
      t.counts.(i) <- t.counts.(i) + b.counts.(i)
    done;
    t.count <- a.count + b.count;
    t.s.sum <- a.s.sum +. b.s.sum;
    t

  let reset t =
    Array.fill t.counts 0 nbuckets 0;
    t.count <- 0;
    t.s.sum <- 0.0
end
