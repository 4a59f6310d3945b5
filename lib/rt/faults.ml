(* Deterministic syscall fault plane.

   Passthrough is one constructor check — the serving hot path pays
   nothing when injection is off. An active plane keeps one SplitMix64
   stream per site (split from the seed in a fixed order), so the k-th
   decision at a site is a pure function of (seed, plan, k) no matter
   how the poller's and the workers' calls interleave. All draws and
   counter bumps happen under one mutex: the shim sits in front of
   syscalls that cost microseconds, so the lock is noise, and it keeps
   the per-site streams race-free when worker domains write
   concurrently with the poller's reads. *)

type site = Read | Write | Accept | Select | Close

let site_name = function
  | Read -> "read"
  | Write -> "write"
  | Accept -> "accept"
  | Select -> "select"
  | Close -> "close"

let all_sites = [ Read; Write; Accept; Select; Close ]

let site_index = function
  | Read -> 0
  | Write -> 1
  | Accept -> 2
  | Select -> 3
  | Close -> 4

type outcome = Pass | Errno of Unix.error | Torn of int | Delay of float

type site_plan = {
  errnos : (Unix.error * float) list;
  torn : float;
  torn_cap : int;
  delay : float;
  delay_s : float;
}

type plan = {
  read : site_plan;
  write : site_plan;
  accept : site_plan;
  select : site_plan;
  close : site_plan;
}

let calm = { errnos = []; torn = 0.0; torn_cap = 1; delay = 0.0; delay_s = 0.0 }

let calm_plan =
  { read = calm; write = calm; accept = calm; select = calm; close = calm }

(* The saturation mix: frequent torn I/O and EINTR, rare peer-gone
   errors on the data path, occasional fd exhaustion and delayed
   accepts. Probabilities are small enough that most requests complete,
   so conservation is exercised across every outcome class at once. *)
let hostile_plan =
  {
    read =
      {
        errnos = [ (Unix.EINTR, 0.02); (Unix.EAGAIN, 0.02); (Unix.ECONNRESET, 0.004) ];
        torn = 0.25;
        torn_cap = 7;
        delay = 0.0;
        delay_s = 0.0;
      };
    write =
      {
        errnos =
          [ (Unix.EINTR, 0.02); (Unix.EAGAIN, 0.05); (Unix.EPIPE, 0.002);
            (Unix.ECONNRESET, 0.002) ];
        torn = 0.25;
        torn_cap = 9;
        delay = 0.0;
        delay_s = 0.0;
      };
    accept =
      {
        errnos = [ (Unix.EINTR, 0.02); (Unix.EMFILE, 0.01) ];
        torn = 0.0;
        torn_cap = 1;
        delay = 0.05;
        delay_s = 0.002;
      };
    select =
      { errnos = [ (Unix.EINTR, 0.05) ]; torn = 0.0; torn_cap = 1; delay = 0.0; delay_s = 0.0 };
    close =
      { errnos = [ (Unix.EINTR, 0.02) ]; torn = 0.0; torn_cap = 1; delay = 0.0; delay_s = 0.0 };
  }

type counts = { passes : int; errnos : int; torn : int; delays : int }

type mcounts = {
  mutable m_pass : int;
  mutable m_errno : int;
  mutable m_torn : int;
  mutable m_delay : int;
}

type active = {
  lock : Mutex.t;
  mutable plan : plan;
  rngs : Mstd.Rng.t array;  (* indexed by site_index *)
  tallies : mcounts array;
}

type t = Passthrough | Active of active

let passthrough = Passthrough

let seeded ?(plan = hostile_plan) seed =
  let root = Mstd.Rng.create (Int64.of_int seed) in
  Active
    {
      lock = Mutex.create ();
      plan;
      (* Split in [all_sites] order so each site's stream is fixed by
         the seed alone. *)
      rngs = Array.init (List.length all_sites) (fun _ -> Mstd.Rng.split root);
      tallies =
        Array.init (List.length all_sites) (fun _ ->
            { m_pass = 0; m_errno = 0; m_torn = 0; m_delay = 0 });
    }

let is_active = function Passthrough -> false | Active _ -> true

let set_plan t plan =
  match t with
  | Passthrough -> ()
  | Active a ->
    Mutex.lock a.lock;
    a.plan <- plan;
    Mutex.unlock a.lock

let plan_for plan site =
  match site with
  | Read -> plan.read
  | Write -> plan.write
  | Accept -> plan.accept
  | Select -> plan.select
  | Close -> plan.close

let decide t site =
  match t with
  | Passthrough -> Pass
  | Active a ->
    Mutex.lock a.lock;
    let i = site_index site in
    let rng = a.rngs.(i) and tally = a.tallies.(i) in
    let sp = plan_for a.plan site in
    let r = Mstd.Rng.float rng 1.0 in
    (* One draw walks the cumulative probability mass; torn lengths
       consume a second draw only when torn actually fires, keeping the
       decision count per site equal to the call count. *)
    let rec pick_errno acc = function
      | [] -> None
      | (e, p) :: rest ->
        let acc = acc +. p in
        if r < acc then Some e else pick_errno acc rest
    in
    let errno_mass = List.fold_left (fun s (_, p) -> s +. p) 0.0 sp.errnos in
    let outcome =
      match pick_errno 0.0 sp.errnos with
      | Some e ->
        tally.m_errno <- tally.m_errno + 1;
        Errno e
      | None ->
        if r < errno_mass +. sp.torn then begin
          tally.m_torn <- tally.m_torn + 1;
          Torn (1 + Mstd.Rng.int rng (max 1 sp.torn_cap))
        end
        else if r < errno_mass +. sp.torn +. sp.delay then begin
          tally.m_delay <- tally.m_delay + 1;
          Delay sp.delay_s
        end
        else begin
          tally.m_pass <- tally.m_pass + 1;
          Pass
        end
    in
    Mutex.unlock a.lock;
    outcome

let counts t site =
  match t with
  | Passthrough -> { passes = 0; errnos = 0; torn = 0; delays = 0 }
  | Active a ->
    Mutex.lock a.lock;
    let m = a.tallies.(site_index site) in
    let c = { passes = m.m_pass; errnos = m.m_errno; torn = m.m_torn; delays = m.m_delay } in
    Mutex.unlock a.lock;
    c

let injected t =
  match t with
  | Passthrough -> 0
  | Active a ->
    Mutex.lock a.lock;
    let n =
      Array.fold_left
        (fun acc m -> acc + m.m_errno + m.m_torn + m.m_delay)
        0 a.tallies
    in
    Mutex.unlock a.lock;
    n
