; Runs off the end of its code: there is no halt, so the machine stops
; on a wild pc.
.text
main:
    mov r1, #1
    add r1, r1, #2
