# Run one bench binary and compare its stdout byte for byte with a
# checked-in capture. Usage:
#   cmake -DBENCH=<binary> -DGOLDEN=<capture> -DOUT=<live output> -P compare.cmake
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${OUT} differs from the capture ${GOLDEN}")
endif()
