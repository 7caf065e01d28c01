# Replays TRACE through both loaders of `ccsim_cli replay` (the owned
# Trace and --mmap): each must exit 2 with "cannot read", not crash.
#
#   cmake -DCLI=<ccsim_cli> -DTRACE=<file.cct> -P expect_cannot_read.cmake
foreach(Mmap "" "--mmap")
  execute_process(COMMAND ${CLI} replay ${TRACE} --policy=8 ${Mmap}
    RESULT_VARIABLE Exit OUTPUT_VARIABLE Out ERROR_VARIABLE Out)
  if(NOT Exit EQUAL 2 OR NOT Out MATCHES "cannot read")
    message(FATAL_ERROR "replay ${Mmap}: exit ${Exit}, output:\n${Out}")
  endif()
endforeach()
