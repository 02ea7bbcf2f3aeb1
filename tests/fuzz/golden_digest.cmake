# Cross-commit digest check: runs one differential_fuzz mode with --digest
# and compares the SHA-256 of its stdout with the value committed in
# golden_digests.txt. Thread-count diffs only compare two runs of one
# build; this pins the transcript across commits, so a change that moves a
# digest has to regenerate the value (and say why).
#
#   cmake -DFUZZ=<differential_fuzz> -DMODE=<mode> -DGOLDEN=<golden file>
#         -DOUT=<transcript path> -P golden_digest.cmake
#
# The transcript is written to OUT so a mismatch can be diffed against a
# run of the previous commit.
foreach(var FUZZ MODE GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_digest.cmake: -D${var}=... is required")
  endif()
endforeach()

file(STRINGS "${GOLDEN}" lines REGEX "^${MODE} ")
list(LENGTH lines n)
if(NOT n EQUAL 1)
  message(FATAL_ERROR "no single golden line for mode '${MODE}' in ${GOLDEN}")
endif()
string(REGEX REPLACE "^${MODE} +([0-9a-f]+).*$" "\\1" expected "${lines}")

execute_process(
  COMMAND "${FUZZ}" --${MODE} --iterations 25 --digest
  OUTPUT_FILE "${OUT}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "differential_fuzz --${MODE} exited with ${rc}")
endif()
file(SHA256 "${OUT}" actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "--${MODE} digest moved: expected ${expected}, got ${actual}; "
    "transcript in ${OUT}")
endif()
message(STATUS "--${MODE} digest ${actual} matches")
