module Dualcore = Dvz_uarch.Dualcore
module Config = Dvz_uarch.Config
module Core = Dvz_uarch.Core
module Metrics = Dvz_obs.Metrics

let m_hits =
  Metrics.counter Metrics.default
    ~help:"Pooled Dualcore instances re-armed in place of a fresh create"
    "dvz_simpool_hits_total"

let m_misses =
  Metrics.counter Metrics.default
    ~help:"Dualcore instances built because no pooled instance matched"
    "dvz_simpool_misses_total"

(* One instance per domain, keyed on everything that is baked in at
   [Dualcore.create] and untouched by [Dualcore.reset].  [Config.t] is a
   plain data record and the other two are simple variants, so structural
   equality is the right key comparison.

   Domain-local (same discipline as [Fault.arm]): worker domains never
   share instances, so acquisition needs no locking and the sequential
   fold's determinism argument is untouched — pooling only changes *which
   arrays* a simulation writes, never what it computes, and collected
   results never alias pooled mutable state. *)
type key = Config.t * Dvz_ift.Policy.mode * Dvz_ift.Taintlog.bound

type slot = { mutable entry : (key * Dualcore.t) option }

let slot_key = Domain.DLS.new_key (fun () -> { entry = None })

let acquire ?(log_bound = Dvz_ift.Taintlog.Unbounded)
    ?(mode = Dvz_ift.Policy.Diffift) cfg stim =
  let slot = Domain.DLS.get slot_key in
  let key = (cfg, mode, log_bound) in
  match slot.entry with
  | Some (k, t) when k = key ->
      Dualcore.reset t stim;
      Metrics.incr m_hits;
      t
  | _ ->
      let t = Dualcore.create ~log_bound ~mode cfg stim in
      slot.entry <- Some (key, t);
      Metrics.incr m_misses;
      t

(* The fork slot holds the target of the oracle's state copy: the
   sanitize run resumes in it from a copy of the main run, which is still
   in [slot_key]'s instance.  Same key as [acquire]. *)

let m_fork_hits =
  Metrics.counter Metrics.default
    ~help:"Pooled fork targets overwritten in place by a testbench copy"
    "dvz_simpool_fork_hits_total"

let m_fork_misses =
  Metrics.counter Metrics.default
    ~help:"Fork targets allocated because no pooled instance matched"
    "dvz_simpool_fork_misses_total"

let fork_slot_key = Domain.DLS.new_key (fun () -> { entry = None })

let fork ?(log_bound = Dvz_ift.Taintlog.Unbounded)
    ?(mode = Dvz_ift.Policy.Diffift) cfg src =
  let slot = Domain.DLS.get fork_slot_key in
  let key = (cfg, mode, log_bound) in
  match slot.entry with
  | Some (k, t) when k = key ->
      Dualcore.blit ~src ~dst:t;
      Metrics.incr m_fork_hits;
      t
  | _ ->
      let t = Dualcore.copy src in
      slot.entry <- Some (key, t);
      Metrics.incr m_fork_misses;
      t

(* A third, independent slot pools a bare single-[Core] testbench for
   the phase-1 trigger evaluator, which runs one core (no shadow pair, no
   taint tracking) many times per iteration during reduction.  Its only
   create-time parameter is the configuration, so that is the whole key. *)

let m_core_hits =
  Metrics.counter Metrics.default
    ~help:"Pooled single-Core instances re-armed in place of a fresh create"
    "dvz_simpool_core_hits_total"

let m_core_misses =
  Metrics.counter Metrics.default
    ~help:"Single-Core instances built because no pooled instance matched"
    "dvz_simpool_core_misses_total"

type core_slot = { mutable core_entry : (Config.t * Core.t) option }

let core_slot_key = Domain.DLS.new_key (fun () -> { core_entry = None })

let acquire_core cfg stim =
  let slot = Domain.DLS.get core_slot_key in
  match slot.core_entry with
  | Some (k, t) when k = cfg ->
      Core.reset t stim;
      Metrics.incr m_core_hits;
      t
  | _ ->
      let t = Core.create cfg stim in
      slot.core_entry <- Some (cfg, t);
      Metrics.incr m_core_misses;
      t

let clear () =
  (Domain.DLS.get slot_key).entry <- None;
  (Domain.DLS.get fork_slot_key).entry <- None;
  (Domain.DLS.get core_slot_key).core_entry <- None

let cached () =
  match (Domain.DLS.get slot_key).entry with
  | Some ((cfg, mode, bound), _) -> Some (cfg, mode, bound)
  | None -> None
