open Artemis_util

type t = {
  mcu_frequency_hz : int;
  mcu_active_power : Energy.power;
  artemis_runtime_cycles_per_event : int;
  artemis_monitor_dispatch_cycles : int;
  artemis_monitor_cycles_per_property : int;
  mayfly_runtime_cycles_per_event : int;
  mayfly_cycles_per_property : int;
  table_op_cycles : int;
  nvm_write_cycles : int;
}

let default =
  {
    mcu_frequency_hz = 1_000_000;
    mcu_active_power = Energy.mw 1.2;
    artemis_runtime_cycles_per_event = 400;
    artemis_monitor_dispatch_cycles = 180;
    artemis_monitor_cycles_per_property = 120;
    mayfly_runtime_cycles_per_event = 260;
    mayfly_cycles_per_property = 150;
    table_op_cycles = 6;
    nvm_write_cycles = 30;
  }

let cycles_to_time t cycles =
  (* 1e6 us per second / f cycles per second = us per cycle; round UP so
     the conversion is conservative - truncating under-accounted every
     overhead at frequencies that don't divide 1 MHz (180 cycles at
     8 MHz is 22.5 us, not 22), which would let a measured cost exceed
     a static bound built from the same constants. *)
  Time.of_us ((cycles * 1_000_000 + t.mcu_frequency_hz - 1) / t.mcu_frequency_hz)

let artemis_runtime_overhead t = cycles_to_time t t.artemis_runtime_cycles_per_event

let mayfly_runtime_overhead t = cycles_to_time t t.mayfly_runtime_cycles_per_event

let mayfly_check_overhead t ~properties =
  cycles_to_time t (t.mayfly_cycles_per_property * properties)

let overhead_power t = t.mcu_active_power
