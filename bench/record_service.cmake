# record_service.cmake - run/validate the thread-shared engine stress
# record.
#
# Script mode (cmake -P) helper behind bench/record_bench.sh service and
# the CI bench step. Two jobs:
#
#   1. Optionally run the service_stress binary first:
#        cmake -DSERVICE_BIN=<path/to/service_stress> \
#              -DSERVICE_JSON=<out.json> \
#              [-DSERVICE_ARGS=--accesses=100000] \
#              -P bench/record_service.cmake
#      (SERVICE_ARGS is a semicolon-separated list of extra flags.)
#
#   2. Validate the BENCH_service.json schema and gate the correctness
#      claims: conservation_ok, audit_clean, k1_serial_identical, and
#      accounted_ok must all be true -- every runShared run of every row
#      (timed and audited) conserved its accesses, every audit runShared
#      ran was clean (checkSharedIndex included, so the residency index
#      agreed with the cache at every quiesce point), every one-guest run
#      equals a serial sim::run field for field, and every sustained-load
#      job landed in exactly one terminal state. The conservation
#      identities are re-checked here on every engine row's recorded
#      counters, and the record must name the host it was measured on.
#      Wall-clock numbers (rates, speedups) are recorded but never gated:
#      scaling depends on the host, correctness does not.
#
# Exits nonzero (FATAL_ERROR) on any schema violation or gate miss.

cmake_minimum_required(VERSION 3.19)

if(NOT DEFINED SERVICE_JSON)
  message(FATAL_ERROR "pass -DSERVICE_JSON=<path to BENCH_service.json>")
endif()

if(DEFINED SERVICE_BIN)
  message(STATUS "running ${SERVICE_BIN} --out=${SERVICE_JSON} "
                 "${SERVICE_ARGS}")
  execute_process(
    COMMAND "${SERVICE_BIN}" "--out=${SERVICE_JSON}" ${SERVICE_ARGS}
    RESULT_VARIABLE RunResult)
  if(NOT RunResult EQUAL 0)
    message(FATAL_ERROR "service_stress exited ${RunResult}")
  endif()
endif()

if(NOT EXISTS "${SERVICE_JSON}")
  message(FATAL_ERROR "no record at ${SERVICE_JSON}")
endif()
file(READ "${SERVICE_JSON}" Record)

# Every key service_stress writes; a missing or retyped key breaks the
# consumers (CI trend tracking, bench/record_bench.sh).
set(RequiredKeys
  bench host benchmark policy pressure ops timed_runs threads_max
  capacity_bytes seed conservation_ok audit_clean k1_serial_identical
  accounted_ok engine_rows load_rows)
foreach(Key IN LISTS RequiredKeys)
  string(JSON Value ERROR_VARIABLE JsonError GET "${Record}" "${Key}")
  if(JsonError)
    message(FATAL_ERROR
            "BENCH_service.json: missing key '${Key}': ${JsonError}")
  endif()
endforeach()
foreach(Key nproc compiler build_type)
  string(JSON Value ERROR_VARIABLE JsonError GET "${Record}" host "${Key}")
  if(JsonError)
    message(FATAL_ERROR
            "BENCH_service.json: missing key 'host.${Key}': ${JsonError}")
  endif()
endforeach()

string(JSON BenchName GET "${Record}" bench)
if(NOT BenchName STREQUAL "service_stress")
  message(FATAL_ERROR "BENCH_service.json: bench is '${BenchName}', "
                      "expected 'service_stress'")
endif()

foreach(Key ops timed_runs threads_max)
  string(JSON Value GET "${Record}" "${Key}")
  if(Value LESS_EQUAL 0)
    message(FATAL_ERROR
            "BENCH_service.json: ${Key}=${Value} must be positive")
  endif()
endforeach()

# The correctness gates: this record claims the shared engine replayed
# the trace at every guest count with every invariant intact.
foreach(Gate conservation_ok audit_clean k1_serial_identical accounted_ok)
  string(JSON Value GET "${Record}" "${Gate}")
  if(NOT Value STREQUAL "ON" AND NOT Value STREQUAL "true")
    message(FATAL_ERROR
            "BENCH_service.json: gate ${Gate}=${Value}, expected true")
  endif()
endforeach()

# Rows must be non-empty and row 0 of the engine section single-threaded
# (the scaling baseline every speedup is relative to).
string(JSON EngineRowCount LENGTH "${Record}" engine_rows)
if(EngineRowCount LESS 1)
  message(FATAL_ERROR "BENCH_service.json: engine_rows is empty")
endif()
string(JSON BaselineThreads GET "${Record}" engine_rows 0 threads)
if(NOT BaselineThreads EQUAL 1)
  message(FATAL_ERROR "BENCH_service.json: engine_rows[0].threads="
                      "${BaselineThreads}, expected the 1-thread baseline")
endif()
string(JSON LoadRowCount LENGTH "${Record}" load_rows)
if(LoadRowCount LESS 1)
  message(FATAL_ERROR "BENCH_service.json: load_rows is empty")
endif()

# Conservation, re-checked on each row's recorded counters: every access
# replayed once (accesses == ops) and classified once.
string(JSON Ops GET "${Record}" ops)
math(EXPR LastRow "${EngineRowCount} - 1")
foreach(Row RANGE ${LastRow})
  foreach(Field threads accesses hits misses cold_misses capacity_misses)
    string(JSON ${Field} GET "${Record}" engine_rows ${Row} ${Field})
  endforeach()
  math(EXPR Classified "${hits} + ${misses}")
  math(EXPR MissKinds "${cold_misses} + ${capacity_misses}")
  if(NOT accesses EQUAL Ops OR NOT Classified EQUAL accesses OR
     NOT MissKinds EQUAL misses)
    message(FATAL_ERROR
            "BENCH_service.json: engine_rows[${Row}] (${threads} guests) "
            "breaks conservation: accesses=${accesses} ops=${Ops} "
            "hits=${hits} misses=${misses} cold=${cold_misses} "
            "capacity=${capacity_misses}")
  endif()
endforeach()

string(JSON Threads GET "${Record}" threads_max)
string(JSON Nproc GET "${Record}" host nproc)
string(JSON PeakRate GET "${Record}" engine_rows ${LastRow} accesses_per_s)
string(JSON PeakSpeedup GET "${Record}" engine_rows ${LastRow} speedup)
message(STATUS "BENCH_service.json ok: ${EngineRowCount} engine rows of "
               "${Ops} accesses up to ${Threads} guests on ${Nproc} "
               "hardware threads (last row ${PeakRate} accesses/s, "
               "speedup ${PeakSpeedup}), ${LoadRowCount} load rows, all "
               "gates clean")
