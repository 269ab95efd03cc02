"""Literal plan golden records; regenerate with
``PYTHONPATH=src python -m tests.goldens.plan_golden``.
"""

RECORDS = {
    'q001-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.5 cost~3.1]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.5 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11430.0]..[11474.0]], filter: orders.ship_date BETWEEN 11460 AND 11474 AND orders.order_date BETWEEN 11430.0 AND 11474.0)  [rows~0.5 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.487829730183,
        'page_reads': 3,
        'checksum': 'cbf8f8c2794b06fbdacf6e144524c69b',
    },
    'q001-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~9.5 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~9.5 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11460 AND 11474)  [rows~9.5 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 9.47058823529,
        'page_reads': 5,
        'checksum': 'cbf8f8c2794b06fbdacf6e144524c69b',
    },
    'q002-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.2 cost~3.1]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.2 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11429.0]..[11466.0]], filter: orders.ship_date BETWEEN 11459 AND 11466 AND orders.order_date BETWEEN 11429.0 AND 11466.0)  [rows~0.2 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.212211328976,
        'page_reads': 3,
        'checksum': '8bacf58f8edd548a9392808b1cb2922d',
    },
    'q002-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~4.7 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~4.7 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11459 AND 11466)  [rows~4.7 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 4.73529411765,
        'page_reads': 5,
        'checksum': '8bacf58f8edd548a9392808b1cb2922d',
    },
    'q003-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.7 cost~3.2]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.7 cost~3.2]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11156.0]..[11200.0]], filter: orders.ship_date BETWEEN 11186 AND 11200 AND orders.order_date BETWEEN 11156.0 AND 11200.0)  [rows~0.7 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.662908080854,
        'page_reads': 3,
        'checksum': '7e72f4c622e253820b779c3399e0a52d',
    },
    'q003-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~9.7 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~9.7 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11186 AND 11200)  [rows~9.7 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 9.69319186561,
        'page_reads': 5,
        'checksum': '7e72f4c622e253820b779c3399e0a52d',
    },
    'q004-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.3 cost~3.1]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.3 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11611.0]..[11648.0]], filter: orders.ship_date BETWEEN 11641 AND 11648 AND orders.order_date BETWEEN 11611.0 AND 11648.0)  [rows~0.3 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.33712019959,
        'page_reads': 4,
        'checksum': '627bec89471f6ec39505ce3cc7a7411b',
    },
    'q004-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~5.6 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~5.6 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11641 AND 11648)  [rows~5.6 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.55172413793,
        'page_reads': 5,
        'checksum': '627bec89471f6ec39505ce3cc7a7411b',
    },
    'q005-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.5 cost~3.1]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.5 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11063.0]..[11107.0]], filter: orders.ship_date BETWEEN 11093 AND 11107 AND orders.order_date BETWEEN 11063.0 AND 11107.0)  [rows~0.5 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.46252444921,
        'page_reads': 3,
        'checksum': '52c8b461ac2ff5150766e662100363b9',
    },
    'q005-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~8.1 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~8.1 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11093 AND 11107)  [rows~8.1 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 8.10526315789,
        'page_reads': 5,
        'checksum': '52c8b461ac2ff5150766e662100363b9',
    },
    'q006-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.1 cost~3.1]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.1 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11277.0]..[11314.0]], filter: orders.ship_date BETWEEN 11307 AND 11314 AND orders.order_date BETWEEN 11277.0 AND 11314.0)  [rows~0.1 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.112945533769,
        'page_reads': 3,
        'checksum': '97742f1a530ce8da45b311b52788f81f',
    },
    'q006-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~3.2 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~3.2 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11307 AND 11314)  [rows~3.2 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 3.22,
        'page_reads': 5,
        'checksum': '97742f1a530ce8da45b311b52788f81f',
    },
    'q007-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.1 cost~3.1]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.1 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11059.0]..[11092.0]], filter: orders.ship_date BETWEEN 11089 AND 11092 AND orders.order_date BETWEEN 11059.0 AND 11092.0)  [rows~0.1 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.0695018980199,
        'page_reads': 3,
        'checksum': '235bc97171656340a31ed89d9ffd8ee6',
    },
    'q007-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~1.7 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~1.7 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11089 AND 11092)  [rows~1.7 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.73684210526,
        'page_reads': 5,
        'checksum': '235bc97171656340a31ed89d9ffd8ee6',
    },
    'q008-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~1.2 cost~3.2]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~1.2 cost~3.2]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11576.0]..[11620.0]], filter: orders.ship_date BETWEEN 11606 AND 11620 AND orders.order_date BETWEEN 11576.0 AND 11620.0)  [rows~1.2 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 1.20681555004,
        'page_reads': 3,
        'checksum': '9d746191792b9b412fdc766920b26f6b',
    },
    'q008-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~14.7 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~14.7 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11606 AND 11620)  [rows~14.7 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 14.6666666667,
        'page_reads': 5,
        'checksum': '9d746191792b9b412fdc766920b26f6b',
    },
    'q009-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.2 cost~3.1]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.2 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11430.0]..[11467.0]], filter: orders.ship_date BETWEEN 11460 AND 11467 AND orders.order_date BETWEEN 11430.0 AND 11467.0)  [rows~0.2 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.218641975309,
        'page_reads': 3,
        'checksum': '5b83d355caae724584126fe70f860566',
    },
    'q009-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~4.7 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~4.7 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11460 AND 11467)  [rows~4.7 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 4.73529411765,
        'page_reads': 5,
        'checksum': '5b83d355caae724584126fe70f860566',
    },
    'q010-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.1 cost~3.1]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.1 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11605.0]..[11638.0]], filter: orders.ship_date BETWEEN 11635 AND 11638 AND orders.order_date BETWEEN 11605.0 AND 11638.0)  [rows~0.1 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.139449758991,
        'page_reads': 4,
        'checksum': 'b9229461c0ed5506674aae7d2e9ba18c',
    },
    'q010-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~2.4 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~2.4 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11635 AND 11638)  [rows~2.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 2.37931034483,
        'page_reads': 5,
        'checksum': 'b9229461c0ed5506674aae7d2e9ba18c',
    },
    'q011-sel_shipdate/default': {
        'explain': (
            'Project(id, customer_id, total)  [rows~0.0 cost~3.1]',
            '  Extend(orders.id AS id, orders.customer_id AS customer_id, orders.total AS total)  [rows~0.0 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11508.0]..[11538.0]], filter: orders.ship_date = 11538 AND orders.order_date BETWEEN 11508.0 AND 11538.0)  [rows~0.0 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.0478791436734,
        'page_reads': 3,
        'checksum': '626bfddfc16c5a533ff466c2729b81d6',
    },
    'q011-sel_shipdate/all_off': {
        'explain': (
            'Project(id, customer_id, total)  [rows~1.2 cost~7.3]',
            '  Extend(orders.id AS id, orders.customer_id AS customer_id, orders.total AS total)  [rows~1.2 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date = 11538)  [rows~1.2 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.24550898204,
        'page_reads': 5,
        'checksum': '626bfddfc16c5a533ff466c2729b81d6',
    },
    'q012-sel_shipdate/default': {
        'explain': (
            'Project(id, customer_id, total)  [rows~0.1 cost~3.1]',
            '  Extend(orders.id AS id, orders.customer_id AS customer_id, orders.total AS total)  [rows~0.1 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11031.0]..[11061.0]], filter: orders.ship_date = 11061 AND orders.order_date BETWEEN 11031.0 AND 11061.0)  [rows~0.1 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.0512811414209,
        'page_reads': 3,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q012-sel_shipdate/all_off': {
        'explain': (
            'Project(id, customer_id, total)  [rows~1.2 cost~7.3]',
            '  Extend(orders.id AS id, orders.customer_id AS customer_id, orders.total AS total)  [rows~1.2 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date = 11061)  [rows~1.2 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.24550898204,
        'page_reads': 5,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q013-sel_shipdate/default': {
        'explain': (
            'Project(id, customer_id, total)  [rows~0.1 cost~3.1]',
            '  Extend(orders.id AS id, orders.customer_id AS customer_id, orders.total AS total)  [rows~0.1 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11027.0]..[11057.0]], filter: orders.ship_date = 11057 AND orders.order_date BETWEEN 11027.0 AND 11057.0)  [rows~0.1 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.0530494566423,
        'page_reads': 3,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q013-sel_shipdate/all_off': {
        'explain': (
            'Project(id, customer_id, total)  [rows~1.2 cost~7.3]',
            '  Extend(orders.id AS id, orders.customer_id AS customer_id, orders.total AS total)  [rows~1.2 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date = 11057)  [rows~1.2 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.24550898204,
        'page_reads': 5,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q014-sel_shipdate/default': {
        'explain': (
            'Project(id, customer_id, total)  [rows~0.1 cost~3.1]',
            '  Extend(orders.id AS id, orders.customer_id AS customer_id, orders.total AS total)  [rows~0.1 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11003.0]..[11033.0]], filter: orders.ship_date = 11033 AND orders.order_date BETWEEN 11003.0 AND 11033.0)  [rows~0.1 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.0568387035453,
        'page_reads': 3,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q014-sel_shipdate/all_off': {
        'explain': (
            'Project(id, customer_id, total)  [rows~1.2 cost~7.3]',
            '  Extend(orders.id AS id, orders.customer_id AS customer_id, orders.total AS total)  [rows~1.2 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date = 11033)  [rows~1.2 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.24550898204,
        'page_reads': 5,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q015-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.1 cost~3.2]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.1 cost~3.2]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11161.0]..[11203.0]], filter: orders.ship_date BETWEEN 11191 AND 11203 AND orders.total > 8416.21 AND orders.order_date BETWEEN 11161.0 AND 11203.0 AND orders.total <= PARAM(sc_orders_total.high))  [rows~0.1 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            '  - predicate_introduction: sc_orders_total: abbreviated range on orders.total (runtime parameters)',
            'depends on soft constraints: sc_orders_ship_lag, sc_orders_total',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'predicate_introduction: sc_orders_total: abbreviated range on orders.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
            'sc_orders_total',
        ),
        'estimate': 0.0939346216096,
        'page_reads': 3,
        'checksum': 'bb5fa45559591fc9499fe1a9058cfe7c',
    },
    'q015-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~1.4 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~1.4 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11191 AND 11203 AND orders.total > 8416.21)  [rows~1.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.37972966991,
        'page_reads': 5,
        'checksum': 'bb5fa45559591fc9499fe1a9058cfe7c',
    },
    'q016-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~1.1 cost~3.2]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~1.1 cost~3.2]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11581.0]..[11623.0]], filter: orders.ship_date BETWEEN 11611 AND 11623 AND orders.total > 771.71 AND orders.order_date BETWEEN 11581.0 AND 11623.0 AND orders.total <= PARAM(sc_orders_total.high))  [rows~1.1 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            '  - predicate_introduction: sc_orders_total: abbreviated range on orders.total (runtime parameters)',
            'depends on soft constraints: sc_orders_ship_lag, sc_orders_total',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'predicate_introduction: sc_orders_total: abbreviated range on orders.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
            'sc_orders_total',
        ),
        'estimate': 1.09110594245,
        'page_reads': 3,
        'checksum': '6865a7e6011097da337eeb63d1ecd84d',
    },
    'q016-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~13.4 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~13.4 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11611 AND 11623 AND orders.total > 771.71)  [rows~13.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 13.4056635575,
        'page_reads': 5,
        'checksum': '6865a7e6011097da337eeb63d1ecd84d',
    },
    'q017-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.2 cost~3.1]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.2 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11442.0]..[11484.0]], filter: orders.ship_date BETWEEN 11472 AND 11484 AND orders.total > 3437.31 AND orders.order_date BETWEEN 11442.0 AND 11484.0 AND orders.total <= PARAM(sc_orders_total.high))  [rows~0.2 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            '  - predicate_introduction: sc_orders_total: abbreviated range on orders.total (runtime parameters)',
            'depends on soft constraints: sc_orders_ship_lag, sc_orders_total',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'predicate_introduction: sc_orders_total: abbreviated range on orders.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
            'sc_orders_total',
        ),
        'estimate': 0.19916406093,
        'page_reads': 4,
        'checksum': 'eb51a0aef191ef4f3dda2051b62f8d51',
    },
    'q017-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~3.8 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~3.8 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11472 AND 11484 AND orders.total > 3437.31)  [rows~3.8 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 3.80133688887,
        'page_reads': 5,
        'checksum': 'eb51a0aef191ef4f3dda2051b62f8d51',
    },
    'q018-sel_shipdate/default': {
        'explain': (
            'Project(id, total)  [rows~0.1 cost~3.2]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.1 cost~3.2]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11572.0]..[11614.0]], filter: orders.ship_date BETWEEN 11602 AND 11614 AND orders.total > 8082.0 AND orders.order_date BETWEEN 11572.0 AND 11614.0 AND orders.total <= PARAM(sc_orders_total.high))  [rows~0.1 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            '  - predicate_introduction: sc_orders_total: abbreviated range on orders.total (runtime parameters)',
            'depends on soft constraints: sc_orders_ship_lag, sc_orders_total',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'predicate_introduction: sc_orders_total: abbreviated range on orders.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
            'sc_orders_total',
        ),
        'estimate': 0.102444828701,
        'page_reads': 3,
        'checksum': '52ac21b3fb0af97007fe0275876f0e10',
    },
    'q018-sel_shipdate/all_off': {
        'explain': (
            'Project(id, total)  [rows~1.3 cost~7.3]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~1.3 cost~7.3]',
            '    SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11602 AND 11614 AND orders.total > 8082.0)  [rows~1.3 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.33837069098,
        'page_reads': 5,
        'checksum': '52ac21b3fb0af97007fe0275876f0e10',
    },
    'q019-sel_charge/default': {
        'explain': (
            'Project(id, quantity, price)  [rows~2.5 cost~3.9]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~2.5 cost~3.9]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[634.8523000000001]..[690.5994999999999]], filter: lineitem.price BETWEEN 595.19 AND 643.55 AND lineitem.charge BETWEEN 634.8523000000001 AND 690.5994999999999)  [rows~2.5 cost~3.9]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 2.45547823183,
        'page_reads': 3,
        'checksum': '153f8c4bd37efd19c04b21e027e14848',
    },
    'q019-sel_charge/all_off': {
        'explain': (
            'Project(id, quantity, price)  [rows~56.4 cost~26.0]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~56.4 cost~25.9]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 595.19 AND 643.55)  [rows~56.4 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 56.367500857,
        'page_reads': 19,
        'checksum': '153f8c4bd37efd19c04b21e027e14848',
    },
    'q020-sel_charge/default': {
        'explain': (
            'Project(id, quantity, price)  [rows~2.6 cost~4.0]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~2.6 cost~4.0]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[656.8515000000001]..[711.6678]], filter: lineitem.price BETWEEN 615.75 AND 663.24 AND lineitem.charge BETWEEN 656.8515000000001 AND 711.6678)  [rows~2.6 cost~3.9]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 2.57566329956,
        'page_reads': 4,
        'checksum': '756ff3850e0653af544208d0b14e2c4b',
    },
    'q020-sel_charge/all_off': {
        'explain': (
            'Project(id, quantity, price)  [rows~57.6 cost~26.0]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~57.6 cost~25.9]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 615.75 AND 663.24)  [rows~57.6 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 57.5502016403,
        'page_reads': 19,
        'checksum': '756ff3850e0653af544208d0b14e2c4b',
    },
    'q021-sel_charge/default': {
        'explain': (
            'Project(id, quantity, price)  [rows~2.7 cost~4.0]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~2.7 cost~4.0]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[275.27880000000005]..[328.0514]], filter: lineitem.price BETWEEN 259.14 AND 304.72 AND lineitem.charge BETWEEN 275.27880000000005 AND 328.0514)  [rows~2.7 cost~4.0]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 2.72419312623,
        'page_reads': 3,
        'checksum': '5c518af420b135602be3cf93ccd0c394',
    },
    'q021-sel_charge/all_off': {
        'explain': (
            'Project(id, quantity, price)  [rows~58.4 cost~26.0]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~58.4 cost~25.9]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 259.14 AND 304.72)  [rows~58.4 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 58.3872011824,
        'page_reads': 19,
        'checksum': '5c518af420b135602be3cf93ccd0c394',
    },
    'q022-sel_charge/default': {
        'explain': (
            'Project(id, quantity, price)  [rows~7.8 cost~5.4]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~7.8 cost~5.4]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[987.7490000000001]..[1066.544]], filter: lineitem.price BETWEEN 925.0 AND 994.9 AND lineitem.charge BETWEEN 987.7490000000001 AND 1066.544)  [rows~7.8 cost~5.4]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 7.82580110818,
        'page_reads': 4,
        'checksum': '598412d1c4dcbdb9446f14628346517d',
    },
    'q022-sel_charge/all_off': {
        'explain': (
            'Project(id, quantity, price)  [rows~101.4 cost~26.2]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~101.4 cost~26.0]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 925.0 AND 994.9)  [rows~101.4 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 101.399788549,
        'page_reads': 19,
        'checksum': '598412d1c4dcbdb9446f14628346517d',
    },
    'q023-sel_charge/default': {
        'explain': (
            'Project(id, quantity, price)  [rows~6.6 cost~5.2]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~6.6 cost~5.2]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[701.8985000000001]..[773.1072]], filter: lineitem.price BETWEEN 657.85 AND 720.66 AND lineitem.charge BETWEEN 701.8985000000001 AND 773.1072)  [rows~6.6 cost~5.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 6.61229550554,
        'page_reads': 4,
        'checksum': '803d80259b9424f6e4fe5722da9ea60c',
    },
    'q023-sel_charge/all_off': {
        'explain': (
            'Project(id, quantity, price)  [rows~90.7 cost~26.1]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~90.7 cost~25.9]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 657.85 AND 720.66)  [rows~90.7 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 90.6833344631,
        'page_reads': 19,
        'checksum': '803d80259b9424f6e4fe5722da9ea60c',
    },
    'q024-sel_charge/default': {
        'explain': (
            'Project(id, quantity, price)  [rows~2.8 cost~4.1]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~2.8 cost~4.1]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[227.1181]..[273.0534]], filter: lineitem.price BETWEEN 214.13 AND 253.32 AND lineitem.charge BETWEEN 227.1181 AND 273.0534)  [rows~2.8 cost~4.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 2.75894498329,
        'page_reads': 3,
        'checksum': '5f17e657a4ad0ec2228ab1cea194c50f',
    },
    'q024-sel_charge/all_off': {
        'explain': (
            'Project(id, quantity, price)  [rows~58.0 cost~26.0]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~58.0 cost~25.9]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 214.13 AND 253.32)  [rows~58.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 57.978677653,
        'page_reads': 19,
        'checksum': '5f17e657a4ad0ec2228ab1cea194c50f',
    },
    'q025-sel_charge/default': {
        'explain': (
            'Project(id, quantity, price)  [rows~2.4 cost~3.9]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~2.4 cost~3.9]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[68.8009]..[113.46290000000002]], filter: lineitem.price BETWEEN 66.17 AND 104.17 AND lineitem.charge BETWEEN 68.8009 AND 113.46290000000002)  [rows~2.4 cost~3.9]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 2.36395371642,
        'page_reads': 4,
        'checksum': '8aa55aab9c7eb51f908418ce6b87ad2e',
    },
    'q025-sel_charge/all_off': {
        'explain': (
            'Project(id, quantity, price)  [rows~53.8 cost~26.0]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~53.8 cost~25.9]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 66.17 AND 104.17)  [rows~53.8 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 53.7763455231,
        'page_reads': 19,
        'checksum': '8aa55aab9c7eb51f908418ce6b87ad2e',
    },
    'q026-sel_charge/default': {
        'explain': (
            'Project(id, quantity, price)  [rows~4.2 cost~4.5]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~4.2 cost~4.5]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[396.6489]..[464.2945]], filter: lineitem.price BETWEEN 372.57 AND 432.05 AND lineitem.charge BETWEEN 396.6489 AND 464.2945)  [rows~4.2 cost~4.5]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 4.22457302846,
        'page_reads': 4,
        'checksum': '3d73e3982baaede2651b1927cbbea538',
    },
    'q026-sel_charge/all_off': {
        'explain': (
            'Project(id, quantity, price)  [rows~72.8 cost~26.0]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~72.8 cost~25.9]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 372.57 AND 432.05)  [rows~72.8 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 72.8262724494,
        'page_reads': 19,
        'checksum': '3d73e3982baaede2651b1927cbbea538',
    },
    'q027-sel_charge/default': {
        'explain': (
            'Project(id, quantity, price)  [rows~5.5 cost~4.9]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~5.5 cost~4.9]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[382.85660000000007]..[454.37559999999996]], filter: lineitem.price BETWEEN 359.68 AND 422.78 AND lineitem.charge BETWEEN 382.85660000000007 AND 454.37559999999996)  [rows~5.5 cost~4.9]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 5.51810169993,
        'page_reads': 5,
        'checksum': 'b0f4ebfe6932f45235f2be4e54eba80f',
    },
    'q027-sel_charge/all_off': {
        'explain': (
            'Project(id, quantity, price)  [rows~84.0 cost~26.1]',
            '  Extend(lineitem.id AS id, lineitem.quantity AS quantity, lineitem.price AS price)  [rows~84.0 cost~25.9]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 359.68 AND 422.78)  [rows~84.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 84.0320592528,
        'page_reads': 19,
        'checksum': 'b0f4ebfe6932f45235f2be4e54eba80f',
    },
    'q028-sel_charge/default': {
        'explain': (
            'Project(id, price)  [rows~1.8 cost~3.7]',
            '  Extend(lineitem.id AS id, lineitem.price AS price)  [rows~1.8 cost~3.7]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[867.6094]..[913.2879]], filter: lineitem.price BETWEEN 812.72 AND 851.67 AND lineitem.quantity >= 5 AND lineitem.charge BETWEEN 867.6094 AND 913.2879 AND lineitem.quantity <= PARAM(sc_lineitem_qty.high))  [rows~1.8 cost~3.7]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_charge, sc_lineitem_qty',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
            'sc_lineitem_qty',
        ),
        'estimate': 1.76643898961,
        'page_reads': 4,
        'checksum': '76ec909f995a4585a1062fdeea6268ad',
    },
    'q028-sel_charge/all_off': {
        'explain': (
            'Project(id, price)  [rows~44.6 cost~25.9]',
            '  Extend(lineitem.id AS id, lineitem.price AS price)  [rows~44.6 cost~25.8]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 812.72 AND 851.67 AND lineitem.quantity >= 5)  [rows~44.6 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 44.6110534979,
        'page_reads': 19,
        'checksum': '76ec909f995a4585a1062fdeea6268ad',
    },
    'q029-sel_charge/default': {
        'explain': (
            'Project(id, price)  [rows~0.4 cost~3.1]',
            '  Extend(lineitem.id AS id, lineitem.price AS price)  [rows~0.4 cost~3.1]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[949.3467]..[975.1018000000001]], filter: lineitem.price BETWEEN 889.11 AND 909.44 AND lineitem.quantity >= 8 AND lineitem.charge BETWEEN 949.3467 AND 975.1018000000001 AND lineitem.quantity <= PARAM(sc_lineitem_qty.high))  [rows~0.4 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_charge, sc_lineitem_qty',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
            'sc_lineitem_qty',
        ),
        'estimate': 0.401480472549,
        'page_reads': 4,
        'checksum': 'f202fec1d5dc26126e15843b0bf35222',
    },
    'q029-sel_charge/all_off': {
        'explain': (
            'Project(id, price)  [rows~20.0 cost~25.8]',
            '  Extend(lineitem.id AS id, lineitem.price AS price)  [rows~20.0 cost~25.8]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 889.11 AND 909.44 AND lineitem.quantity >= 8)  [rows~20.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 19.9917321496,
        'page_reads': 19,
        'checksum': 'f202fec1d5dc26126e15843b0bf35222',
    },
    'q030-sel_charge/default': {
        'explain': (
            'Project(id, price)  [rows~0.4 cost~3.2]',
            '  Extend(lineitem.id AS id, lineitem.price AS price)  [rows~0.4 cost~3.2]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[1003.9916000000001]..[1036.6161]], filter: lineitem.price BETWEEN 940.18 AND 966.93 AND lineitem.quantity >= 30 AND lineitem.charge BETWEEN 1003.9916000000001 AND 1036.6161 AND lineitem.quantity <= PARAM(sc_lineitem_qty.high))  [rows~0.4 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_charge, sc_lineitem_qty',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
            'sc_lineitem_qty',
        ),
        'estimate': 0.412351646185,
        'page_reads': 4,
        'checksum': 'f87ed52f6202d22c2bd46d46cc053c9d',
    },
    'q030-sel_charge/all_off': {
        'explain': (
            'Project(id, price)  [rows~14.4 cost~25.8]',
            '  Extend(lineitem.id AS id, lineitem.price AS price)  [rows~14.4 cost~25.8]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 940.18 AND 966.93 AND lineitem.quantity >= 30)  [rows~14.4 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 14.4163362894,
        'page_reads': 19,
        'checksum': 'f87ed52f6202d22c2bd46d46cc053c9d',
    },
    'q031-sel_charge/default': {
        'explain': (
            'Project(id, price)  [rows~0.7 cost~3.3]',
            '  Extend(lineitem.id AS id, lineitem.price AS price)  [rows~0.7 cost~3.3]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[579.5012]..[610.7775]], filter: lineitem.price BETWEEN 543.46 AND 568.95 AND lineitem.quantity >= 17 AND lineitem.charge BETWEEN 579.5012 AND 610.7775 AND lineitem.quantity <= PARAM(sc_lineitem_qty.high))  [rows~0.7 cost~3.3]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_charge, sc_lineitem_qty',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
            'sc_lineitem_qty',
        ),
        'estimate': 0.748841907671,
        'page_reads': 3,
        'checksum': 'fc1940138c384cc861c8f080a4905dc7',
    },
    'q031-sel_charge/all_off': {
        'explain': (
            'Project(id, price)  [rows~24.3 cost~25.8]',
            '  Extend(lineitem.id AS id, lineitem.price AS price)  [rows~24.3 cost~25.8]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 543.46 AND 568.95 AND lineitem.quantity >= 17)  [rows~24.3 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 24.3000226834,
        'page_reads': 19,
        'checksum': 'fc1940138c384cc861c8f080a4905dc7',
    },
    'q032-sel_charge/default': {
        'explain': (
            'Project(id, price)  [rows~1.2 cost~3.5]',
            '  Extend(lineitem.id AS id, lineitem.price AS price)  [rows~1.2 cost~3.5]',
            '    IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[275.6105]..[316.48470000000003]], filter: lineitem.price BETWEEN 259.45 AND 293.91 AND lineitem.quantity >= 10 AND lineitem.charge BETWEEN 275.6105 AND 316.48470000000003 AND lineitem.quantity <= PARAM(sc_lineitem_qty.high))  [rows~1.2 cost~3.5]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_charge, sc_lineitem_qty',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
            'sc_lineitem_qty',
        ),
        'estimate': 1.16777874727,
        'page_reads': 3,
        'checksum': 'fe08fff6ca09d5359ba20c1be1b55d81',
    },
    'q032-sel_charge/all_off': {
        'explain': (
            'Project(id, price)  [rows~34.4 cost~25.9]',
            '  Extend(lineitem.id AS id, lineitem.price AS price)  [rows~34.4 cost~25.8]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 259.45 AND 293.91 AND lineitem.quantity >= 10)  [rows~34.4 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 34.3923352969,
        'page_reads': 19,
        'checksum': 'fe08fff6ca09d5359ba20c1be1b55d81',
    },
    'q033-sel_bounds/default': {
        'explain': (
            'Project(id)  [rows~0.0 cost~0.0]',
            '  Extend(orders.id AS id)  [rows~0.0 cost~0.0]',
            '    EmptyResult(orders AS orders)  [rows~0.0 cost~0.0]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_total: query range outside known min/max of orders.total — block is empty',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_total: query range outside known min/max of orders.total — block is empty',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 0.0,
        'page_reads': 0,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q033-sel_bounds/all_off': {
        'explain': (
            'Project(id)  [rows~0.0 cost~7.2]',
            '  Extend(orders.id AS id)  [rows~0.0 cost~7.2]',
            '    SeqScan(orders AS orders, filter: orders.total > 10001.0)  [rows~0.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 0.0,
        'page_reads': 5,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q034-sel_bounds/default': {
        'explain': (
            'Project(id)  [rows~0.0 cost~0.0]',
            '  Extend(orders.id AS id)  [rows~0.0 cost~0.0]',
            '    EmptyResult(orders AS orders)  [rows~0.0 cost~0.0]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_total: query range outside known min/max of orders.total — block is empty',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_total: query range outside known min/max of orders.total — block is empty',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 0.0,
        'page_reads': 0,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q034-sel_bounds/all_off': {
        'explain': (
            'Project(id)  [rows~0.0 cost~7.2]',
            '  Extend(orders.id AS id)  [rows~0.0 cost~7.2]',
            '    SeqScan(orders AS orders, filter: orders.total < 1.0)  [rows~0.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 0.0,
        'page_reads': 5,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q035-sel_bounds/default': {
        'explain': (
            'Project(id, total)  [rows~0.0 cost~0.0]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.0 cost~0.0]',
            '    EmptyResult(orders AS orders)  [rows~0.0 cost~0.0]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_total: query range outside known min/max of orders.total — block is empty',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_total: query range outside known min/max of orders.total — block is empty',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 0.0,
        'page_reads': 0,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q035-sel_bounds/all_off': {
        'explain': (
            'Project(id, total)  [rows~0.0 cost~7.2]',
            '  Extend(orders.id AS id, orders.total AS total)  [rows~0.0 cost~7.2]',
            '    SeqScan(orders AS orders, filter: orders.total BETWEEN 10500.0 AND 10900.0)  [rows~0.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 0.0,
        'page_reads': 5,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q036-sel_bounds/default': {
        'explain': (
            'Project(id)  [rows~0.0 cost~0.0]',
            '  Extend(lineitem.id AS id)  [rows~0.0 cost~0.0]',
            '    EmptyResult(lineitem AS lineitem)  [rows~0.0 cost~0.0]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_qty: query range outside known min/max of lineitem.quantity — block is empty',
            'depends on soft constraints: sc_lineitem_qty',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_qty: query range outside known min/max of lineitem.quantity — block is empty',
        ),
        'sc_dependencies': (
            'sc_lineitem_qty',
        ),
        'estimate': 0.0,
        'page_reads': 0,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q036-sel_bounds/all_off': {
        'explain': (
            'Project(id)  [rows~0.0 cost~25.8]',
            '  Extend(lineitem.id AS id)  [rows~0.0 cost~25.8]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.quantity > 50)  [rows~0.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 0.0,
        'page_reads': 19,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q037-sel_bounds/default': {
        'explain': (
            'Project(id)  [rows~0.0 cost~0.0]',
            '  Extend(lineitem.id AS id)  [rows~0.0 cost~0.0]',
            '    EmptyResult(lineitem AS lineitem)  [rows~0.0 cost~0.0]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_qty: query range outside known min/max of lineitem.quantity — block is empty',
            'depends on soft constraints: sc_lineitem_qty',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_qty: query range outside known min/max of lineitem.quantity — block is empty',
        ),
        'sc_dependencies': (
            'sc_lineitem_qty',
        ),
        'estimate': 0.0,
        'page_reads': 0,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q037-sel_bounds/all_off': {
        'explain': (
            'Project(id)  [rows~0.0 cost~25.8]',
            '  Extend(lineitem.id AS id)  [rows~0.0 cost~25.8]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.quantity < 1)  [rows~0.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 0.0,
        'page_reads': 19,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q038-sel_bounds/default': {
        'explain': (
            'Project(n)  [rows~1.0 cost~0.0]',
            '  Extend(n AS n)  [rows~1.0 cost~0.0]',
            '    GroupBy(keys: (); aggs: count->n)  [rows~1.0 cost~0.0]',
            '      EmptyResult(orders AS orders)  [rows~0.0 cost~0.0]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_total: query range outside known min/max of orders.total — block is empty',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_total: query range outside known min/max of orders.total — block is empty',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 1.0,
        'page_reads': 0,
        'checksum': 'e46cf2b11530e7dcd5c1eca34eb27d3d',
    },
    'q038-sel_bounds/all_off': {
        'explain': (
            'Project(n)  [rows~1.0 cost~7.3]',
            '  Extend(n AS n)  [rows~1.0 cost~7.3]',
            '    GroupBy(keys: (); aggs: count->n)  [rows~1.0 cost~7.2]',
            '      SeqScan(orders AS orders, filter: orders.total > 10001.0)  [rows~0.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 5,
        'checksum': 'e46cf2b11530e7dcd5c1eca34eb27d3d',
    },
    'q039-sel_bounds/default': {
        'explain': (
            'Project(id)  [rows~0.0 cost~0.0]',
            '  Extend(orders.id AS id)  [rows~0.0 cost~0.0]',
            '    EmptyResult(orders AS orders)  [rows~0.0 cost~0.0]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_total: query range outside known min/max of orders.total — block is empty',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_total: query range outside known min/max of orders.total — block is empty',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 0.0,
        'page_reads': 0,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q039-sel_bounds/all_off': {
        'explain': (
            'Project(id)  [rows~0.0 cost~7.2]',
            '  Extend(orders.id AS id)  [rows~0.0 cost~7.2]',
            '    SeqScan(orders AS orders, filter: orders.total > 10500.0 AND orders.priority = 1)  [rows~0.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 0.0,
        'page_reads': 5,
        'checksum': 'd41d8cd98f00b204e9800998ecf8427e',
    },
    'q040-sel_bounds/default': {
        'explain': (
            'Project(s)  [rows~1.0 cost~0.0]',
            '  Extend(s AS s)  [rows~1.0 cost~0.0]',
            '    GroupBy(keys: (); aggs: sum->s)  [rows~1.0 cost~0.0]',
            '      EmptyResult(lineitem AS lineitem)  [rows~0.0 cost~0.0]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_qty: query range outside known min/max of lineitem.quantity — block is empty',
            'depends on soft constraints: sc_lineitem_qty',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_qty: query range outside known min/max of lineitem.quantity — block is empty',
        ),
        'sc_dependencies': (
            'sc_lineitem_qty',
        ),
        'estimate': 1.0,
        'page_reads': 0,
        'checksum': '64bddfcddd3649e2d2bb0ae1aa74df16',
    },
    'q040-sel_bounds/all_off': {
        'explain': (
            'Project(s)  [rows~1.0 cost~25.8]',
            '  Extend(s AS s)  [rows~1.0 cost~25.8]',
            '    GroupBy(keys: (); aggs: sum->s)  [rows~1.0 cost~25.8]',
            '      SeqScan(lineitem AS lineitem, filter: lineitem.quantity > 55)  [rows~0.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 19,
        'checksum': '64bddfcddd3649e2d2bb0ae1aa74df16',
    },
    'q041-sel_misc/default': {
        'explain': (
            'Project(id, name)  [rows~14.0 cost~1.4]',
            '  Extend(customer.id AS id, customer.name AS name)  [rows~14.0 cost~1.3]',
            '    SeqScan(customer AS customer, filter: customer.segment = 2)  [rows~14.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 14.0,
        'page_reads': 1,
        'checksum': '082fc206aef3979e9c1e82a4e5c8c21b',
    },
    'q041-sel_misc/all_off': {
        'explain': (
            'Project(id, name)  [rows~14.0 cost~1.4]',
            '  Extend(customer.id AS id, customer.name AS name)  [rows~14.0 cost~1.3]',
            '    SeqScan(customer AS customer, filter: customer.segment = 2)  [rows~14.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 14.0,
        'page_reads': 1,
        'checksum': '082fc206aef3979e9c1e82a4e5c8c21b',
    },
    'q042-sel_misc/default': {
        'explain': (
            'Project(id, name)  [rows~14.0 cost~1.4]',
            '  Extend(customer.id AS id, customer.name AS name)  [rows~14.0 cost~1.3]',
            '    SeqScan(customer AS customer, filter: customer.segment = 2)  [rows~14.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 14.0,
        'page_reads': 1,
        'checksum': '082fc206aef3979e9c1e82a4e5c8c21b',
    },
    'q042-sel_misc/all_off': {
        'explain': (
            'Project(id, name)  [rows~14.0 cost~1.4]',
            '  Extend(customer.id AS id, customer.name AS name)  [rows~14.0 cost~1.3]',
            '    SeqScan(customer AS customer, filter: customer.segment = 2)  [rows~14.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 14.0,
        'page_reads': 1,
        'checksum': '082fc206aef3979e9c1e82a4e5c8c21b',
    },
    'q043-sel_misc/default': {
        'explain': (
            'Project(id, name)  [rows~7.0 cost~1.3]',
            '  Extend(customer.id AS id, customer.name AS name)  [rows~7.0 cost~1.3]',
            '    SeqScan(customer AS customer, filter: customer.segment = 0)  [rows~7.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 7.0,
        'page_reads': 1,
        'checksum': 'c42fe8b9826fd68675015fd344dce71c',
    },
    'q043-sel_misc/all_off': {
        'explain': (
            'Project(id, name)  [rows~7.0 cost~1.3]',
            '  Extend(customer.id AS id, customer.name AS name)  [rows~7.0 cost~1.3]',
            '    SeqScan(customer AS customer, filter: customer.segment = 0)  [rows~7.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 7.0,
        'page_reads': 1,
        'checksum': 'c42fe8b9826fd68675015fd344dce71c',
    },
    'q044-sel_misc/default': {
        'explain': (
            'Project(id, category)  [rows~18.0 cost~1.2]',
            '  Extend(part.id AS id, part.category AS category)  [rows~18.0 cost~1.2]',
            '    SeqScan(part AS part, filter: part.category IN (1, 2, 6))  [rows~18.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 18.0,
        'page_reads': 1,
        'checksum': 'de6e7788a209cfe46509fc211937e047',
    },
    'q044-sel_misc/all_off': {
        'explain': (
            'Project(id, category)  [rows~18.0 cost~1.2]',
            '  Extend(part.id AS id, part.category AS category)  [rows~18.0 cost~1.2]',
            '    SeqScan(part AS part, filter: part.category IN (1, 2, 6))  [rows~18.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 18.0,
        'page_reads': 1,
        'checksum': 'de6e7788a209cfe46509fc211937e047',
    },
    'q045-sel_misc/default': {
        'explain': (
            'Project(id, name)  [rows~6.0 cost~1.3]',
            '  Extend(customer.id AS id, customer.name AS name)  [rows~6.0 cost~1.3]',
            "    SeqScan(customer AS customer, filter: customer.name LIKE 'cust00%')  [rows~6.0 cost~1.3]",
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.0,
        'page_reads': 1,
        'checksum': '9509055f0c502fd59fbfbef1d9a9e6d7',
    },
    'q045-sel_misc/all_off': {
        'explain': (
            'Project(id, name)  [rows~6.0 cost~1.3]',
            '  Extend(customer.id AS id, customer.name AS name)  [rows~6.0 cost~1.3]',
            "    SeqScan(customer AS customer, filter: customer.name LIKE 'cust00%')  [rows~6.0 cost~1.3]",
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.0,
        'page_reads': 1,
        'checksum': '9509055f0c502fd59fbfbef1d9a9e6d7',
    },
    'q046-sel_misc/default': {
        'explain': (
            'Project(id)  [rows~2.0 cost~1.3]',
            '  Extend(customer.id AS id)  [rows~2.0 cost~1.3]',
            '    SeqScan(customer AS customer, filter: customer.balance IS NULL)  [rows~2.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 2.0,
        'page_reads': 1,
        'checksum': 'f9a1988c0030dc1eb962e3431642ea00',
    },
    'q046-sel_misc/all_off': {
        'explain': (
            'Project(id)  [rows~2.0 cost~1.3]',
            '  Extend(customer.id AS id)  [rows~2.0 cost~1.3]',
            '    SeqScan(customer AS customer, filter: customer.balance IS NULL)  [rows~2.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 2.0,
        'page_reads': 1,
        'checksum': 'f9a1988c0030dc1eb962e3431642ea00',
    },
    'q047-sel_misc/default': {
        'explain': (
            'Project(id, balance)  [rows~2.9 cost~1.3]',
            '  Extend(customer.id AS id, customer.balance AS balance)  [rows~2.9 cost~1.3]',
            '    SeqScan(customer AS customer, filter: customer.balance IS NOT NULL AND customer.balance < 0.0)  [rows~2.9 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 2.9,
        'page_reads': 1,
        'checksum': '4da1faa5edefee54eb7145feecfdcf5f',
    },
    'q047-sel_misc/all_off': {
        'explain': (
            'Project(id, balance)  [rows~2.9 cost~1.3]',
            '  Extend(customer.id AS id, customer.balance AS balance)  [rows~2.9 cost~1.3]',
            '    SeqScan(customer AS customer, filter: customer.balance IS NOT NULL AND customer.balance < 0.0)  [rows~2.9 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 2.9,
        'page_reads': 1,
        'checksum': '4da1faa5edefee54eb7145feecfdcf5f',
    },
    'q048-sel_misc/default': {
        'explain': (
            'Project(id)  [rows~3.0 cost~1.1]',
            '  Extend(supplier.id AS id)  [rows~3.0 cost~1.1]',
            '    SeqScan(supplier AS supplier, filter: supplier.rating >= 3)  [rows~3.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 3.0,
        'page_reads': 1,
        'checksum': 'ccc16b30ffd94e35dbe18f7847f33e1a',
    },
    'q048-sel_misc/all_off': {
        'explain': (
            'Project(id)  [rows~3.0 cost~1.1]',
            '  Extend(supplier.id AS id)  [rows~3.0 cost~1.1]',
            '    SeqScan(supplier AS supplier, filter: supplier.rating >= 3)  [rows~3.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 3.0,
        'page_reads': 1,
        'checksum': 'ccc16b30ffd94e35dbe18f7847f33e1a',
    },
    'q049-sel_misc/default': {
        'explain': (
            'Project(id, size)  [rows~6.0 cost~1.2]',
            '  Extend(part.id AS id, part.size AS size)  [rows~6.0 cost~1.2]',
            '    SeqScan(part AS part, filter: part.size BETWEEN 10 AND 20)  [rows~6.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.0,
        'page_reads': 1,
        'checksum': '797bf8907ca074049068cbddeed4294a',
    },
    'q049-sel_misc/all_off': {
        'explain': (
            'Project(id, size)  [rows~6.0 cost~1.2]',
            '  Extend(part.id AS id, part.size AS size)  [rows~6.0 cost~1.2]',
            '    SeqScan(part AS part, filter: part.size BETWEEN 10 AND 20)  [rows~6.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.0,
        'page_reads': 1,
        'checksum': '797bf8907ca074049068cbddeed4294a',
    },
    'q050-sel_misc/default': {
        'explain': (
            'Project(id)  [rows~142.7 cost~26.3]',
            '  Extend(lineitem.id AS id)  [rows~142.7 cost~26.0]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.discount > 0.05 AND lineitem.quantity < 10 AND lineitem.quantity >= PARAM(sc_lineitem_qty.low))  [rows~142.7 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_qty',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_qty: abbreviated range on lineitem.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_qty',
        ),
        'estimate': 142.724,
        'page_reads': 19,
        'checksum': '1af93d2f4defa663ada1924b82b2c21a',
    },
    'q050-sel_misc/all_off': {
        'explain': (
            'Project(id)  [rows~142.7 cost~26.3]',
            '  Extend(lineitem.id AS id)  [rows~142.7 cost~26.0]',
            '    SeqScan(lineitem AS lineitem, filter: lineitem.discount > 0.05 AND lineitem.quantity < 10)  [rows~142.7 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 142.724,
        'page_reads': 19,
        'checksum': '1af93d2f4defa663ada1924b82b2c21a',
    },
    'q051-sel_misc/default': {
        'explain': (
            'Project(id, priority)  [rows~293.7 cost~8.4]',
            '  Extend(orders.id AS id, orders.priority AS priority)  [rows~293.7 cost~7.8]',
            '    SeqScan(orders AS orders, filter: orders.priority <> 0 AND orders.customer_id < 50)  [rows~293.7 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 293.695,
        'page_reads': 5,
        'checksum': 'e76f0fa3a0a9358a00baa8da55cb9b0b',
    },
    'q051-sel_misc/all_off': {
        'explain': (
            'Project(id, priority)  [rows~293.7 cost~8.4]',
            '  Extend(orders.id AS id, orders.priority AS priority)  [rows~293.7 cost~7.8]',
            '    SeqScan(orders AS orders, filter: orders.priority <> 0 AND orders.customer_id < 50)  [rows~293.7 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 293.695,
        'page_reads': 5,
        'checksum': 'e76f0fa3a0a9358a00baa8da55cb9b0b',
    },
    'q052-sel_misc/default': {
        'explain': (
            'Project(id)  [rows~2.8 cost~1.2]',
            '  Extend(part.id AS id)  [rows~2.8 cost~1.2]',
            '    SeqScan(part AS part, filter: part.category <> 0 AND part.size > 45)  [rows~2.8 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 2.8,
        'page_reads': 1,
        'checksum': '374d6740a841d6d4bfb1e27725aca5f8',
    },
    'q052-sel_misc/all_off': {
        'explain': (
            'Project(id)  [rows~2.8 cost~1.2]',
            '  Extend(part.id AS id)  [rows~2.8 cost~1.2]',
            '    SeqScan(part AS part, filter: part.category <> 0 AND part.size > 45)  [rows~2.8 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 2.8,
        'page_reads': 1,
        'checksum': '374d6740a841d6d4bfb1e27725aca5f8',
    },
    'q053-sel_misc/default': {
        'explain': (
            'Project(id, ship_date)  [rows~6.4 cost~3.1]',
            '  Extend(orders.id AS id, orders.ship_date AS ship_date)  [rows~6.4 cost~3.0]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11249]..[11259]], filter: orders.order_date BETWEEN 11249 AND 11259)  [rows~6.4 cost~3.0]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.36363636364,
        'page_reads': 3,
        'checksum': 'f4ed231d127a96412412d5022142b9ec',
    },
    'q053-sel_misc/all_off': {
        'explain': (
            'Project(id, ship_date)  [rows~6.4 cost~3.1]',
            '  Extend(orders.id AS id, orders.ship_date AS ship_date)  [rows~6.4 cost~3.0]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11249]..[11259]], filter: orders.order_date BETWEEN 11249 AND 11259)  [rows~6.4 cost~3.0]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.36363636364,
        'page_reads': 3,
        'checksum': 'f4ed231d127a96412412d5022142b9ec',
    },
    'q054-sel_misc/default': {
        'explain': (
            'Project(id, ship_date)  [rows~7.9 cost~3.1]',
            '  Extend(orders.id AS id, orders.ship_date AS ship_date)  [rows~7.9 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11100]..[11110]], filter: orders.order_date BETWEEN 11100 AND 11110)  [rows~7.9 cost~3.0]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 7.85376344086,
        'page_reads': 3,
        'checksum': '33ca18fedac76f87b9d685b757f6b43e',
    },
    'q054-sel_misc/all_off': {
        'explain': (
            'Project(id, ship_date)  [rows~7.9 cost~3.1]',
            '  Extend(orders.id AS id, orders.ship_date AS ship_date)  [rows~7.9 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11100]..[11110]], filter: orders.order_date BETWEEN 11100 AND 11110)  [rows~7.9 cost~3.0]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 7.85376344086,
        'page_reads': 3,
        'checksum': '33ca18fedac76f87b9d685b757f6b43e',
    },
    'q055-sel_misc/default': {
        'explain': (
            'Project(id, ship_date)  [rows~8.2 cost~3.1]',
            '  Extend(orders.id AS id, orders.ship_date AS ship_date)  [rows~8.2 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11008]..[11018]], filter: orders.order_date BETWEEN 11008 AND 11018)  [rows~8.2 cost~3.0]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 8.21428571429,
        'page_reads': 3,
        'checksum': '6a7e339d2033efc2f84e5f2f41b45adb',
    },
    'q055-sel_misc/all_off': {
        'explain': (
            'Project(id, ship_date)  [rows~8.2 cost~3.1]',
            '  Extend(orders.id AS id, orders.ship_date AS ship_date)  [rows~8.2 cost~3.1]',
            '    IndexScan(orders AS orders VIA idx_orders_odate [[11008]..[11018]], filter: orders.order_date BETWEEN 11008 AND 11018)  [rows~8.2 cost~3.0]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 8.21428571429,
        'page_reads': 3,
        'checksum': '6a7e339d2033efc2f84e5f2f41b45adb',
    },
    'q056-join_habit/default': {
        'explain': (
            'Project(id, total)  [rows~399.8 cost~8.8]',
            '  Extend(o.id AS id, o.total AS total)  [rows~399.8 cost~8.0]',
            '    SeqScan(orders AS o, filter: o.total > 1039.98 AND o.total <= PARAM(sc_orders_total.high))  [rows~399.8 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed customer AS c via FK fk_orders_cust',
            '  - predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'join_elimination: removed customer AS c via FK fk_orders_cust',
            'predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 399.767226156,
        'page_reads': 5,
        'checksum': 'dcb72eac3d1fa37b37e2dd88bab643d3',
    },
    'q056-join_habit/all_off': {
        'explain': (
            'Project(id, total)  [rows~399.8 cost~16.4]',
            '  Extend(o.id AS id, o.total AS total)  [rows~399.8 cost~15.6]',
            '    HashJoin(on c.id=o.customer_id)  [rows~399.8 cost~14.8]',
            '      SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '      SeqScan(orders AS o, filter: o.total > 1039.98)  [rows~399.8 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 399.767226156,
        'page_reads': 6,
        'checksum': 'dcb72eac3d1fa37b37e2dd88bab643d3',
    },
    'q057-join_habit/default': {
        'explain': (
            'Project(id, total)  [rows~399.8 cost~8.8]',
            '  Extend(o.id AS id, o.total AS total)  [rows~399.8 cost~8.0]',
            '    SeqScan(orders AS o, filter: o.total > 1039.98 AND o.total <= PARAM(sc_orders_total.high))  [rows~399.8 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed customer AS c via FK fk_orders_cust',
            '  - predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'join_elimination: removed customer AS c via FK fk_orders_cust',
            'predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 399.767226156,
        'page_reads': 5,
        'checksum': 'dcb72eac3d1fa37b37e2dd88bab643d3',
    },
    'q057-join_habit/all_off': {
        'explain': (
            'Project(id, total)  [rows~399.8 cost~16.4]',
            '  Extend(o.id AS id, o.total AS total)  [rows~399.8 cost~15.6]',
            '    HashJoin(on c.id=o.customer_id)  [rows~399.8 cost~14.8]',
            '      SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '      SeqScan(orders AS o, filter: o.total > 1039.98)  [rows~399.8 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 399.767226156,
        'page_reads': 6,
        'checksum': 'dcb72eac3d1fa37b37e2dd88bab643d3',
    },
    'q058-join_habit/default': {
        'explain': (
            'Project(id, total)  [rows~102.4 cost~7.7]',
            '  Extend(o.id AS id, o.total AS total)  [rows~102.4 cost~7.5]',
            '    SeqScan(orders AS o, filter: o.total > 7673.4 AND o.total <= PARAM(sc_orders_total.high))  [rows~102.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed customer AS c via FK fk_orders_cust',
            '  - predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'join_elimination: removed customer AS c via FK fk_orders_cust',
            'predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 102.362322452,
        'page_reads': 5,
        'checksum': 'adbf3bf7b579843c6fe03198bbf2d1d6',
    },
    'q058-join_habit/all_off': {
        'explain': (
            'Project(id, total)  [rows~102.4 cost~10.8]',
            '  Extend(o.id AS id, o.total AS total)  [rows~102.4 cost~10.6]',
            '    HashJoin(on c.id=o.customer_id)  [rows~102.4 cost~10.4]',
            '      SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '      SeqScan(orders AS o, filter: o.total > 7673.4)  [rows~102.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 102.362322452,
        'page_reads': 6,
        'checksum': 'adbf3bf7b579843c6fe03198bbf2d1d6',
    },
    'q059-join_habit/default': {
        'explain': (
            'Project(id, total)  [rows~102.4 cost~7.7]',
            '  Extend(o.id AS id, o.total AS total)  [rows~102.4 cost~7.5]',
            '    SeqScan(orders AS o, filter: o.total > 7673.4 AND o.total <= PARAM(sc_orders_total.high))  [rows~102.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed customer AS c via FK fk_orders_cust',
            '  - predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'join_elimination: removed customer AS c via FK fk_orders_cust',
            'predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 102.362322452,
        'page_reads': 5,
        'checksum': 'adbf3bf7b579843c6fe03198bbf2d1d6',
    },
    'q059-join_habit/all_off': {
        'explain': (
            'Project(id, total)  [rows~102.4 cost~10.8]',
            '  Extend(o.id AS id, o.total AS total)  [rows~102.4 cost~10.6]',
            '    HashJoin(on c.id=o.customer_id)  [rows~102.4 cost~10.4]',
            '      SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '      SeqScan(orders AS o, filter: o.total > 7673.4)  [rows~102.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 102.362322452,
        'page_reads': 6,
        'checksum': 'adbf3bf7b579843c6fe03198bbf2d1d6',
    },
    'q060-join_habit/default': {
        'explain': (
            'Project(id, total)  [rows~350.4 cost~8.7]',
            '  Extend(o.id AS id, o.total AS total)  [rows~350.4 cost~8.0]',
            '    SeqScan(orders AS o, filter: o.total > 2099.93 AND o.total <= PARAM(sc_orders_total.high))  [rows~350.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed customer AS c via FK fk_orders_cust',
            '  - predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'join_elimination: removed customer AS c via FK fk_orders_cust',
            'predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 350.445421167,
        'page_reads': 5,
        'checksum': '1e8beca72c3051c4b1e7b1c8aa55fdf8',
    },
    'q060-join_habit/all_off': {
        'explain': (
            'Project(id, total)  [rows~350.4 cost~15.5]',
            '  Extend(o.id AS id, o.total AS total)  [rows~350.4 cost~14.8]',
            '    HashJoin(on c.id=o.customer_id)  [rows~350.4 cost~14.1]',
            '      SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '      SeqScan(orders AS o, filter: o.total > 2099.93)  [rows~350.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 350.445421167,
        'page_reads': 6,
        'checksum': '1e8beca72c3051c4b1e7b1c8aa55fdf8',
    },
    'q061-join_habit/default': {
        'explain': (
            'Project(id, total)  [rows~350.4 cost~8.7]',
            '  Extend(o.id AS id, o.total AS total)  [rows~350.4 cost~8.0]',
            '    SeqScan(orders AS o, filter: o.total > 2099.93 AND o.total <= PARAM(sc_orders_total.high))  [rows~350.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed customer AS c via FK fk_orders_cust',
            '  - predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'join_elimination: removed customer AS c via FK fk_orders_cust',
            'predicate_introduction: sc_orders_total: abbreviated range on o.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 350.445421167,
        'page_reads': 5,
        'checksum': '1e8beca72c3051c4b1e7b1c8aa55fdf8',
    },
    'q061-join_habit/all_off': {
        'explain': (
            'Project(id, total)  [rows~350.4 cost~15.5]',
            '  Extend(o.id AS id, o.total AS total)  [rows~350.4 cost~14.8]',
            '    HashJoin(on c.id=o.customer_id)  [rows~350.4 cost~14.1]',
            '      SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '      SeqScan(orders AS o, filter: o.total > 2099.93)  [rows~350.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 350.445421167,
        'page_reads': 6,
        'checksum': '1e8beca72c3051c4b1e7b1c8aa55fdf8',
    },
    'q062-join_habit/default': {
        'explain': (
            'Project(s)  [rows~1.0 cost~31.5]',
            '  Extend(s AS s)  [rows~1.0 cost~31.5]',
            '    GroupBy(keys: (); aggs: sum->s)  [rows~1.0 cost~31.5]',
            '      SeqScan(lineitem AS l, filter: l.quantity > 36 AND l.quantity <= PARAM(sc_lineitem_qty.high))  [rows~385.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed part AS p via FK fk_line_part',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on l.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_qty',
        ),
        'rewrites': (
            'join_elimination: removed part AS p via FK fk_line_part',
            'predicate_introduction: sc_lineitem_qty: abbreviated range on l.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_qty',
        ),
        'estimate': 1.0,
        'page_reads': 19,
        'checksum': '64b590abe6227fb8bc99b8cbaa2b77cd',
    },
    'q062-join_habit/all_off': {
        'explain': (
            'Project(s)  [rows~1.0 cost~35.1]',
            '  Extend(s AS s)  [rows~1.0 cost~35.1]',
            '    GroupBy(keys: (); aggs: sum->s)  [rows~1.0 cost~35.0]',
            '      HashJoin(on l.part_id=p.id)  [rows~385.0 cost~29.3]',
            '        SeqScan(lineitem AS l, filter: l.quantity > 36)  [rows~385.0 cost~25.8]',
            '        SeqScan(part AS p)  [rows~30.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 20,
        'checksum': '64b590abe6227fb8bc99b8cbaa2b77cd',
    },
    'q063-join_habit/default': {
        'explain': (
            'Project(s)  [rows~1.0 cost~31.5]',
            '  Extend(s AS s)  [rows~1.0 cost~31.5]',
            '    GroupBy(keys: (); aggs: sum->s)  [rows~1.0 cost~31.5]',
            '      SeqScan(lineitem AS l, filter: l.quantity > 36 AND l.quantity <= PARAM(sc_lineitem_qty.high))  [rows~385.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed part AS p via FK fk_line_part',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on l.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_qty',
        ),
        'rewrites': (
            'join_elimination: removed part AS p via FK fk_line_part',
            'predicate_introduction: sc_lineitem_qty: abbreviated range on l.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_qty',
        ),
        'estimate': 1.0,
        'page_reads': 19,
        'checksum': '64b590abe6227fb8bc99b8cbaa2b77cd',
    },
    'q063-join_habit/all_off': {
        'explain': (
            'Project(s)  [rows~1.0 cost~35.1]',
            '  Extend(s AS s)  [rows~1.0 cost~35.1]',
            '    GroupBy(keys: (); aggs: sum->s)  [rows~1.0 cost~35.0]',
            '      HashJoin(on l.part_id=p.id)  [rows~385.0 cost~29.3]',
            '        SeqScan(lineitem AS l, filter: l.quantity > 36)  [rows~385.0 cost~25.8]',
            '        SeqScan(part AS p)  [rows~30.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 20,
        'checksum': '64b590abe6227fb8bc99b8cbaa2b77cd',
    },
    'q064-join_habit/default': {
        'explain': (
            'Project(s)  [rows~1.0 cost~28.6]',
            '  Extend(s AS s)  [rows~1.0 cost~28.6]',
            '    GroupBy(keys: (); aggs: sum->s)  [rows~1.0 cost~28.6]',
            '      SeqScan(lineitem AS l, filter: l.quantity > 44 AND l.quantity <= PARAM(sc_lineitem_qty.high))  [rows~191.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed part AS p via FK fk_line_part',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on l.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_qty',
        ),
        'rewrites': (
            'join_elimination: removed part AS p via FK fk_line_part',
            'predicate_introduction: sc_lineitem_qty: abbreviated range on l.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_qty',
        ),
        'estimate': 1.0,
        'page_reads': 19,
        'checksum': '4a75272192afe6484f504270bebdcd9f',
    },
    'q064-join_habit/all_off': {
        'explain': (
            'Project(s)  [rows~1.0 cost~31.2]',
            '  Extend(s AS s)  [rows~1.0 cost~31.2]',
            '    GroupBy(keys: (); aggs: sum->s)  [rows~1.0 cost~31.2]',
            '      HashJoin(on l.part_id=p.id)  [rows~191.0 cost~28.3]',
            '        SeqScan(lineitem AS l, filter: l.quantity > 44)  [rows~191.0 cost~25.8]',
            '        SeqScan(part AS p)  [rows~30.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 20,
        'checksum': '4a75272192afe6484f504270bebdcd9f',
    },
    'q065-join_habit/default': {
        'explain': (
            'Project(s)  [rows~1.0 cost~28.6]',
            '  Extend(s AS s)  [rows~1.0 cost~28.6]',
            '    GroupBy(keys: (); aggs: sum->s)  [rows~1.0 cost~28.6]',
            '      SeqScan(lineitem AS l, filter: l.quantity > 44 AND l.quantity <= PARAM(sc_lineitem_qty.high))  [rows~191.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed part AS p via FK fk_line_part',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on l.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_qty',
        ),
        'rewrites': (
            'join_elimination: removed part AS p via FK fk_line_part',
            'predicate_introduction: sc_lineitem_qty: abbreviated range on l.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_qty',
        ),
        'estimate': 1.0,
        'page_reads': 19,
        'checksum': '4a75272192afe6484f504270bebdcd9f',
    },
    'q065-join_habit/all_off': {
        'explain': (
            'Project(s)  [rows~1.0 cost~31.2]',
            '  Extend(s AS s)  [rows~1.0 cost~31.2]',
            '    GroupBy(keys: (); aggs: sum->s)  [rows~1.0 cost~31.2]',
            '      HashJoin(on l.part_id=p.id)  [rows~191.0 cost~28.3]',
            '        SeqScan(lineitem AS l, filter: l.quantity > 44)  [rows~191.0 cost~25.8]',
            '        SeqScan(part AS p)  [rows~30.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 20,
        'checksum': '4a75272192afe6484f504270bebdcd9f',
    },
    'q066-join_habit/default': {
        'explain': (
            'Project(id, total)  [rows~0.4 cost~3.1]',
            '  Extend(o.id AS id, o.total AS total)  [rows~0.4 cost~3.1]',
            '    IndexScan(orders AS o VIA idx_orders_odate [[11488.0]..[11532.0]], filter: o.ship_date BETWEEN 11518 AND 11532 AND o.order_date BETWEEN 11488.0 AND 11532.0)  [rows~0.4 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed customer AS c via FK fk_orders_cust',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'join_elimination: removed customer AS c via FK fk_orders_cust',
            'predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.422587086116,
        'page_reads': 3,
        'checksum': '4e9d0d4850cff8d208b45a83eb872f75',
    },
    'q066-join_habit/all_off': {
        'explain': (
            'Project(id, total)  [rows~7.5 cost~9.0]',
            '  Extend(o.id AS id, o.total AS total)  [rows~7.5 cost~9.0]',
            '    HashJoin(on c.id=o.customer_id)  [rows~7.5 cost~9.0]',
            '      SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '      SeqScan(orders AS o, filter: o.ship_date BETWEEN 11518 AND 11532)  [rows~7.5 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 7.54285714286,
        'page_reads': 6,
        'checksum': '4e9d0d4850cff8d208b45a83eb872f75',
    },
    'q067-join_habit/default': {
        'explain': (
            'Project(id, total)  [rows~0.4 cost~3.1]',
            '  Extend(o.id AS id, o.total AS total)  [rows~0.4 cost~3.1]',
            '    IndexScan(orders AS o VIA idx_orders_odate [[11488.0]..[11532.0]], filter: o.ship_date BETWEEN 11518 AND 11532 AND o.order_date BETWEEN 11488.0 AND 11532.0)  [rows~0.4 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed customer AS c via FK fk_orders_cust',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'join_elimination: removed customer AS c via FK fk_orders_cust',
            'predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.422587086116,
        'page_reads': 3,
        'checksum': '4e9d0d4850cff8d208b45a83eb872f75',
    },
    'q067-join_habit/all_off': {
        'explain': (
            'Project(id, total)  [rows~7.5 cost~9.0]',
            '  Extend(o.id AS id, o.total AS total)  [rows~7.5 cost~9.0]',
            '    HashJoin(on c.id=o.customer_id)  [rows~7.5 cost~9.0]',
            '      SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '      SeqScan(orders AS o, filter: o.ship_date BETWEEN 11518 AND 11532)  [rows~7.5 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 7.54285714286,
        'page_reads': 6,
        'checksum': '4e9d0d4850cff8d208b45a83eb872f75',
    },
    'q068-join_multi/default': {
        'explain': (
            'Project(segment, revenue)  [rows~1.4 cost~4.8]',
            '  Extend(c.segment AS segment, revenue AS revenue)  [rows~1.4 cost~4.8]',
            '    GroupBy(keys: c.segment; aggs: sum->revenue)  [rows~1.4 cost~4.8]',
            '      HashJoin(on c.id=o.customer_id)  [rows~1.4 cost~4.8]',
            '        SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '        IndexScan(orders AS o VIA idx_orders_odate [[11162.0]..[11212.0]], filter: o.ship_date BETWEEN 11192 AND 11212 AND o.order_date BETWEEN 11162.0 AND 11212.0)  [rows~1.4 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 1.41438744043,
        'page_reads': 4,
        'checksum': 'd42517dbc2c19b8180bfb122ff54104a',
    },
    'q068-join_multi/all_off': {
        'explain': (
            'Project(segment, revenue)  [rows~5.0 cost~9.4]',
            '  Extend(c.segment AS segment, revenue AS revenue)  [rows~5.0 cost~9.4]',
            '    GroupBy(keys: c.segment; aggs: sum->revenue)  [rows~5.0 cost~9.3]',
            '      HashJoin(on c.id=o.customer_id)  [rows~16.6 cost~9.1]',
            '        SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '        SeqScan(orders AS o, filter: o.ship_date BETWEEN 11192 AND 11212)  [rows~16.6 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.0,
        'page_reads': 6,
        'checksum': 'd42517dbc2c19b8180bfb122ff54104a',
    },
    'q069-join_multi/default': {
        'explain': (
            'Project(segment, revenue)  [rows~1.4 cost~4.8]',
            '  Extend(c.segment AS segment, revenue AS revenue)  [rows~1.4 cost~4.8]',
            '    GroupBy(keys: c.segment; aggs: sum->revenue)  [rows~1.4 cost~4.8]',
            '      HashJoin(on c.id=o.customer_id)  [rows~1.4 cost~4.8]',
            '        SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '        IndexScan(orders AS o VIA idx_orders_odate [[11162.0]..[11212.0]], filter: o.ship_date BETWEEN 11192 AND 11212 AND o.order_date BETWEEN 11162.0 AND 11212.0)  [rows~1.4 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 1.41438744043,
        'page_reads': 4,
        'checksum': 'd42517dbc2c19b8180bfb122ff54104a',
    },
    'q069-join_multi/all_off': {
        'explain': (
            'Project(segment, revenue)  [rows~5.0 cost~9.4]',
            '  Extend(c.segment AS segment, revenue AS revenue)  [rows~5.0 cost~9.4]',
            '    GroupBy(keys: c.segment; aggs: sum->revenue)  [rows~5.0 cost~9.3]',
            '      HashJoin(on c.id=o.customer_id)  [rows~16.6 cost~9.1]',
            '        SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '        SeqScan(orders AS o, filter: o.ship_date BETWEEN 11192 AND 11212)  [rows~16.6 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.0,
        'page_reads': 6,
        'checksum': 'd42517dbc2c19b8180bfb122ff54104a',
    },
    'q070-join_multi/default': {
        'explain': (
            'Project(segment, revenue)  [rows~1.0 cost~4.8]',
            '  Extend(c.segment AS segment, revenue AS revenue)  [rows~1.0 cost~4.8]',
            '    GroupBy(keys: c.segment; aggs: sum->revenue)  [rows~1.0 cost~4.8]',
            '      HashJoin(on c.id=o.customer_id)  [rows~0.9 cost~4.8]',
            '        SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '        IndexScan(orders AS o VIA idx_orders_odate [[11101.0]..[11151.0]], filter: o.ship_date BETWEEN 11131 AND 11151 AND o.order_date BETWEEN 11101.0 AND 11151.0)  [rows~0.9 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 1.0,
        'page_reads': 5,
        'checksum': '6e398df5094d24efd889086eda015959',
    },
    'q070-join_multi/all_off': {
        'explain': (
            'Project(segment, revenue)  [rows~5.0 cost~9.3]',
            '  Extend(c.segment AS segment, revenue AS revenue)  [rows~5.0 cost~9.3]',
            '    GroupBy(keys: c.segment; aggs: sum->revenue)  [rows~5.0 cost~9.2]',
            '      HashJoin(on c.id=o.customer_id)  [rows~13.1 cost~9.0]',
            '        SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '        SeqScan(orders AS o, filter: o.ship_date BETWEEN 11131 AND 11151)  [rows~13.1 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.0,
        'page_reads': 6,
        'checksum': '6e398df5094d24efd889086eda015959',
    },
    'q071-join_multi/default': {
        'explain': (
            'Project(segment, revenue)  [rows~1.0 cost~4.8]',
            '  Extend(c.segment AS segment, revenue AS revenue)  [rows~1.0 cost~4.8]',
            '    GroupBy(keys: c.segment; aggs: sum->revenue)  [rows~1.0 cost~4.8]',
            '      HashJoin(on c.id=o.customer_id)  [rows~0.9 cost~4.8]',
            '        SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '        IndexScan(orders AS o VIA idx_orders_odate [[11101.0]..[11151.0]], filter: o.ship_date BETWEEN 11131 AND 11151 AND o.order_date BETWEEN 11101.0 AND 11151.0)  [rows~0.9 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 1.0,
        'page_reads': 5,
        'checksum': '6e398df5094d24efd889086eda015959',
    },
    'q071-join_multi/all_off': {
        'explain': (
            'Project(segment, revenue)  [rows~5.0 cost~9.3]',
            '  Extend(c.segment AS segment, revenue AS revenue)  [rows~5.0 cost~9.3]',
            '    GroupBy(keys: c.segment; aggs: sum->revenue)  [rows~5.0 cost~9.2]',
            '      HashJoin(on c.id=o.customer_id)  [rows~13.1 cost~9.0]',
            '        SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '        SeqScan(orders AS o, filter: o.ship_date BETWEEN 11131 AND 11151)  [rows~13.1 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.0,
        'page_reads': 6,
        'checksum': '6e398df5094d24efd889086eda015959',
    },
    'q072-join_multi/default': {
        'explain': (
            'Project(category, n)  [rows~10.0 cost~34.4]',
            '  Extend(p.category AS category, n AS n)  [rows~10.0 cost~34.4]',
            '    GroupBy(keys: p.category; aggs: count->n)  [rows~10.0 cost~34.3]',
            '      HashJoin(on l.part_id=p.id)  [rows~45.0 cost~33.7]',
            '        SeqScan(lineitem AS l)  [rows~1350.0 cost~25.8]',
            '        SeqScan(part AS p, filter: p.category = 6)  [rows~1.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 10.0,
        'page_reads': 20,
        'checksum': '4f4b08b23c2ce6dfe38cc299209e7fc4',
    },
    'q072-join_multi/all_off': {
        'explain': (
            'Project(category, n)  [rows~10.0 cost~34.4]',
            '  Extend(p.category AS category, n AS n)  [rows~10.0 cost~34.4]',
            '    GroupBy(keys: p.category; aggs: count->n)  [rows~10.0 cost~34.3]',
            '      HashJoin(on l.part_id=p.id)  [rows~45.0 cost~33.7]',
            '        SeqScan(lineitem AS l)  [rows~1350.0 cost~25.8]',
            '        SeqScan(part AS p, filter: p.category = 6)  [rows~1.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 10.0,
        'page_reads': 20,
        'checksum': '4f4b08b23c2ce6dfe38cc299209e7fc4',
    },
    'q073-join_multi/default': {
        'explain': (
            'Project(category, n)  [rows~10.0 cost~34.4]',
            '  Extend(p.category AS category, n AS n)  [rows~10.0 cost~34.4]',
            '    GroupBy(keys: p.category; aggs: count->n)  [rows~10.0 cost~34.3]',
            '      HashJoin(on l.part_id=p.id)  [rows~45.0 cost~33.7]',
            '        SeqScan(lineitem AS l)  [rows~1350.0 cost~25.8]',
            '        SeqScan(part AS p, filter: p.category = 6)  [rows~1.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 10.0,
        'page_reads': 20,
        'checksum': '4f4b08b23c2ce6dfe38cc299209e7fc4',
    },
    'q073-join_multi/all_off': {
        'explain': (
            'Project(category, n)  [rows~10.0 cost~34.4]',
            '  Extend(p.category AS category, n AS n)  [rows~10.0 cost~34.4]',
            '    GroupBy(keys: p.category; aggs: count->n)  [rows~10.0 cost~34.3]',
            '      HashJoin(on l.part_id=p.id)  [rows~45.0 cost~33.7]',
            '        SeqScan(lineitem AS l)  [rows~1350.0 cost~25.8]',
            '        SeqScan(part AS p, filter: p.category = 6)  [rows~1.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 10.0,
        'page_reads': 20,
        'checksum': '4f4b08b23c2ce6dfe38cc299209e7fc4',
    },
    'q074-join_multi/default': {
        'explain': (
            'Project(rating, total_price)  [rows~4.0 cost~41.5]',
            '  Extend(s.rating AS rating, total_price AS total_price)  [rows~4.0 cost~41.5]',
            '    GroupBy(keys: s.rating; aggs: sum->total_price)  [rows~4.0 cost~41.5]',
            '      HashJoin(on l.supplier_id=s.id)  [rows~725.0 cost~30.6]',
            '        SeqScan(lineitem AS l, filter: l.quantity > 23 AND l.quantity <= PARAM(sc_lineitem_qty.high))  [rows~725.0 cost~25.8]',
            '        SeqScan(supplier AS s)  [rows~12.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_qty: abbreviated range on l.quantity (runtime parameters)',
            'depends on soft constraints: sc_lineitem_qty',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_qty: abbreviated range on l.quantity (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_lineitem_qty',
        ),
        'estimate': 4.0,
        'page_reads': 20,
        'checksum': '3a56bb5ba720b7599f9f593c029c3d82',
    },
    'q074-join_multi/all_off': {
        'explain': (
            'Project(rating, total_price)  [rows~4.0 cost~41.5]',
            '  Extend(s.rating AS rating, total_price AS total_price)  [rows~4.0 cost~41.5]',
            '    GroupBy(keys: s.rating; aggs: sum->total_price)  [rows~4.0 cost~41.5]',
            '      HashJoin(on l.supplier_id=s.id)  [rows~725.0 cost~30.6]',
            '        SeqScan(lineitem AS l, filter: l.quantity > 23)  [rows~725.0 cost~25.8]',
            '        SeqScan(supplier AS s)  [rows~12.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 4.0,
        'page_reads': 20,
        'checksum': '3a56bb5ba720b7599f9f593c029c3d82',
    },
    'q075-join_multi/default': {
        'explain': (
            'Project(segment, n)  [rows~1.0 cost~37.2]',
            '  Extend(c.segment AS segment, n AS n)  [rows~1.0 cost~37.2]',
            '    GroupBy(keys: c.segment; aggs: count->n)  [rows~1.0 cost~37.2]',
            '      HashJoin(on l.order_id=o.id)  [rows~0.6 cost~37.2]',
            '        SeqScan(lineitem AS l)  [rows~1350.0 cost~25.8]',
            '        HashJoin(on c.id=o.customer_id)  [rows~0.2 cost~4.7]',
            '          SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '          IndexScan(orders AS o VIA idx_orders_odate [[11371.0]..[11411.0]], filter: o.ship_date BETWEEN 11401 AND 11411 AND o.order_date BETWEEN 11371.0 AND 11411.0)  [rows~0.2 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 1.0,
        'page_reads': 23,
        'checksum': '82b26355c171a1e0fc70428c6e1acfd4',
    },
    'q075-join_multi/all_off': {
        'explain': (
            'Project(segment, n)  [rows~5.0 cost~41.7]',
            '  Extend(c.segment AS segment, n AS n)  [rows~5.0 cost~41.6]',
            '    GroupBy(keys: c.segment; aggs: count->n)  [rows~5.0 cost~41.6]',
            '      HashJoin(on l.order_id=o.id)  [rows~11.4 cost~41.5]',
            '        SeqScan(lineitem AS l)  [rows~1350.0 cost~25.8]',
            '        HashJoin(on c.id=o.customer_id)  [rows~3.8 cost~8.9]',
            '          SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '          SeqScan(orders AS o, filter: o.ship_date BETWEEN 11401 AND 11411)  [rows~3.8 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.0,
        'page_reads': 25,
        'checksum': '82b26355c171a1e0fc70428c6e1acfd4',
    },
    'q076-join_multi/default': {
        'explain': (
            'Project(segment, n)  [rows~1.0 cost~37.2]',
            '  Extend(c.segment AS segment, n AS n)  [rows~1.0 cost~37.2]',
            '    GroupBy(keys: c.segment; aggs: count->n)  [rows~1.0 cost~37.2]',
            '      HashJoin(on l.order_id=o.id)  [rows~0.6 cost~37.2]',
            '        SeqScan(lineitem AS l)  [rows~1350.0 cost~25.8]',
            '        HashJoin(on c.id=o.customer_id)  [rows~0.2 cost~4.7]',
            '          SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '          IndexScan(orders AS o VIA idx_orders_odate [[11371.0]..[11411.0]], filter: o.ship_date BETWEEN 11401 AND 11411 AND o.order_date BETWEEN 11371.0 AND 11411.0)  [rows~0.2 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on o.order_date from o.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 1.0,
        'page_reads': 23,
        'checksum': '82b26355c171a1e0fc70428c6e1acfd4',
    },
    'q076-join_multi/all_off': {
        'explain': (
            'Project(segment, n)  [rows~5.0 cost~41.7]',
            '  Extend(c.segment AS segment, n AS n)  [rows~5.0 cost~41.6]',
            '    GroupBy(keys: c.segment; aggs: count->n)  [rows~5.0 cost~41.6]',
            '      HashJoin(on l.order_id=o.id)  [rows~11.4 cost~41.5]',
            '        SeqScan(lineitem AS l)  [rows~1350.0 cost~25.8]',
            '        HashJoin(on c.id=o.customer_id)  [rows~3.8 cost~8.9]',
            '          SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '          SeqScan(orders AS o, filter: o.ship_date BETWEEN 11401 AND 11411)  [rows~3.8 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.0,
        'page_reads': 25,
        'checksum': '82b26355c171a1e0fc70428c6e1acfd4',
    },
    'q077-join_multi/default': {
        'explain': (
            'Project(nation_id, category, revenue)  [rows~45.0 cost~36.0]',
            '  Extend(s.nation_id AS nation_id, p.category AS category, revenue AS revenue)  [rows~45.0 cost~35.9]',
            '    GroupBy(keys: s.nation_id, p.category; aggs: sum->revenue)  [rows~45.0 cost~35.8]',
            '      HashJoin(on l.supplier_id=s.id)  [rows~45.0 cost~35.1]',
            '        HashJoin(on l.part_id=p.id)  [rows~45.0 cost~33.7]',
            '          SeqScan(lineitem AS l)  [rows~1350.0 cost~25.8]',
            '          SeqScan(part AS p, filter: p.category = 6)  [rows~1.0 cost~1.1]',
            '        SeqScan(supplier AS s)  [rows~12.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 45.0,
        'page_reads': 21,
        'checksum': 'b9249085cd03d75d0c1d70225ba8cf5a',
    },
    'q077-join_multi/all_off': {
        'explain': (
            'Project(nation_id, category, revenue)  [rows~45.0 cost~36.0]',
            '  Extend(s.nation_id AS nation_id, p.category AS category, revenue AS revenue)  [rows~45.0 cost~35.9]',
            '    GroupBy(keys: s.nation_id, p.category; aggs: sum->revenue)  [rows~45.0 cost~35.8]',
            '      HashJoin(on l.supplier_id=s.id)  [rows~45.0 cost~35.1]',
            '        HashJoin(on l.part_id=p.id)  [rows~45.0 cost~33.7]',
            '          SeqScan(lineitem AS l)  [rows~1350.0 cost~25.8]',
            '          SeqScan(part AS p, filter: p.category = 6)  [rows~1.0 cost~1.1]',
            '        SeqScan(supplier AS s)  [rows~12.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 45.0,
        'page_reads': 21,
        'checksum': 'b9249085cd03d75d0c1d70225ba8cf5a',
    },
    'q078-join_multi/default': {
        'explain': (
            'Project(category, avg_total)  [rows~10.0 cost~46.7]',
            '  Extend(p.category AS category, avg_total AS avg_total)  [rows~10.0 cost~46.7]',
            '    GroupBy(keys: p.category; aggs: avg->avg_total)  [rows~10.0 cost~46.6]',
            '      HashJoin(on o.id=l.order_id)  [rows~279.5 cost~42.4]',
            '        SeqScan(orders AS o)  [rows~450.0 cost~7.2]',
            '        HashJoin(on l.part_id=p.id)  [rows~279.5 cost~28.7]',
            '          SeqScan(lineitem AS l, filter: l.discount > 0.08)  [rows~279.5 cost~25.8]',
            '          SeqScan(part AS p)  [rows~30.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 10.0,
        'page_reads': 25,
        'checksum': '86bcfc432a2fe6a343c23f015003f9f9',
    },
    'q078-join_multi/all_off': {
        'explain': (
            'Project(category, avg_total)  [rows~10.0 cost~46.7]',
            '  Extend(p.category AS category, avg_total AS avg_total)  [rows~10.0 cost~46.7]',
            '    GroupBy(keys: p.category; aggs: avg->avg_total)  [rows~10.0 cost~46.6]',
            '      HashJoin(on o.id=l.order_id)  [rows~279.5 cost~42.4]',
            '        SeqScan(orders AS o)  [rows~450.0 cost~7.2]',
            '        HashJoin(on l.part_id=p.id)  [rows~279.5 cost~28.7]',
            '          SeqScan(lineitem AS l, filter: l.discount > 0.08)  [rows~279.5 cost~25.8]',
            '          SeqScan(part AS p)  [rows~30.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 10.0,
        'page_reads': 25,
        'checksum': '86bcfc432a2fe6a343c23f015003f9f9',
    },
    'q079-aggregate/default': {
        'explain': (
            'Project(priority, n, avg_total)  [rows~2.9 cost~3.3]',
            '  Extend(orders.priority AS priority, n AS n, avg_total AS avg_total)  [rows~2.9 cost~3.3]',
            '    GroupBy(keys: orders.priority; aggs: count->n, avg->avg_total)  [rows~2.9 cost~3.3]',
            '      IndexScan(orders AS orders VIA idx_orders_odate [[11184.0]..[11239.0]], filter: orders.ship_date BETWEEN 11214 AND 11239 AND orders.order_date BETWEEN 11184.0 AND 11239.0)  [rows~2.9 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 2.87935764874,
        'page_reads': 3,
        'checksum': 'c635f908b924923755e216df56ba1bc7',
    },
    'q079-aggregate/all_off': {
        'explain': (
            'Project(priority, n, avg_total)  [rows~3.0 cost~7.7]',
            '  Extend(orders.priority AS priority, n AS n, avg_total AS avg_total)  [rows~3.0 cost~7.7]',
            '    GroupBy(keys: orders.priority; aggs: count->n, avg->avg_total)  [rows~3.0 cost~7.7]',
            '      SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11214 AND 11239)  [rows~26.8 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 3.0,
        'page_reads': 5,
        'checksum': 'c635f908b924923755e216df56ba1bc7',
    },
    'q080-aggregate/default': {
        'explain': (
            'Project(priority, n, avg_total)  [rows~1.3 cost~3.2]',
            '  Extend(orders.priority AS priority, n AS n, avg_total AS avg_total)  [rows~1.3 cost~3.2]',
            '    GroupBy(keys: orders.priority; aggs: count->n, avg->avg_total)  [rows~1.3 cost~3.2]',
            '      IndexScan(orders AS orders VIA idx_orders_odate [[10967.0]..[11022.0]], filter: orders.ship_date BETWEEN 10997 AND 11022 AND orders.order_date BETWEEN 10967.0 AND 11022.0)  [rows~1.3 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 1.30776980711,
        'page_reads': 3,
        'checksum': '4c1393f75084290d8a33d707fc9d16ed',
    },
    'q080-aggregate/all_off': {
        'explain': (
            'Project(priority, n, avg_total)  [rows~3.0 cost~7.5]',
            '  Extend(orders.priority AS priority, n AS n, avg_total AS avg_total)  [rows~3.0 cost~7.5]',
            '    GroupBy(keys: orders.priority; aggs: count->n, avg->avg_total)  [rows~3.0 cost~7.5]',
            '      SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 10997 AND 11022)  [rows~15.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 3.0,
        'page_reads': 5,
        'checksum': '4c1393f75084290d8a33d707fc9d16ed',
    },
    'q081-aggregate/default': {
        'explain': (
            'Project(priority, n, avg_total)  [rows~1.0 cost~3.2]',
            '  Extend(orders.priority AS priority, n AS n, avg_total AS avg_total)  [rows~1.0 cost~3.1]',
            '    GroupBy(keys: orders.priority; aggs: count->n, avg->avg_total)  [rows~1.0 cost~3.1]',
            '      IndexScan(orders AS orders VIA idx_orders_odate [[11243.0]..[11298.0]], filter: orders.ship_date BETWEEN 11273 AND 11298 AND orders.order_date BETWEEN 11243.0 AND 11298.0)  [rows~0.6 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 1.0,
        'page_reads': 4,
        'checksum': '8a7680aa9c8fd77561f1bda015b59cbe',
    },
    'q081-aggregate/all_off': {
        'explain': (
            'Project(priority, n, avg_total)  [rows~3.0 cost~7.4]',
            '  Extend(orders.priority AS priority, n AS n, avg_total AS avg_total)  [rows~3.0 cost~7.4]',
            '    GroupBy(keys: orders.priority; aggs: count->n, avg->avg_total)  [rows~3.0 cost~7.4]',
            '      SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11273 AND 11298)  [rows~9.7 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 3.0,
        'page_reads': 5,
        'checksum': '8a7680aa9c8fd77561f1bda015b59cbe',
    },
    'q082-aggregate/default': {
        'explain': (
            'Project(quantity, total_charge)  [rows~13.8 cost~6.7]',
            '  Extend(lineitem.quantity AS quantity, total_charge AS total_charge)  [rows~13.8 cost~6.7]',
            '    GroupBy(keys: lineitem.quantity; aggs: sum->total_charge)  [rows~13.8 cost~6.7]',
            '      IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[914.9034]..[1038.5956]], filter: lineitem.price BETWEEN 856.92 AND 968.78 AND lineitem.charge BETWEEN 914.9034 AND 1038.5956)  [rows~13.8 cost~6.5]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 13.7900328296,
        'page_reads': 5,
        'checksum': 'cd09ef79ff352133ecc6c385ca5b3e91',
    },
    'q082-aggregate/all_off': {
        'explain': (
            'Project(quantity, total_charge)  [rows~50.0 cost~28.0]',
            '  Extend(lineitem.quantity AS quantity, total_charge AS total_charge)  [rows~50.0 cost~27.9]',
            '    GroupBy(keys: lineitem.quantity; aggs: sum->total_charge)  [rows~50.0 cost~27.8]',
            '      SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 856.92 AND 968.78)  [rows~134.2 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 50.0,
        'page_reads': 19,
        'checksum': 'cd09ef79ff352133ecc6c385ca5b3e91',
    },
    'q083-aggregate/default': {
        'explain': (
            'Project(quantity, total_charge)  [rows~10.6 cost~6.1]',
            '  Extend(lineitem.quantity AS quantity, total_charge AS total_charge)  [rows~10.6 cost~6.1]',
            '    GroupBy(keys: lineitem.quantity; aggs: sum->total_charge)  [rows~10.6 cost~6.1]',
            '      IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[936.5602]..[1042.8114]], filter: lineitem.price BETWEEN 877.16 AND 972.72 AND lineitem.charge BETWEEN 936.5602 AND 1042.8114)  [rows~10.6 cost~5.9]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 10.5937055878,
        'page_reads': 5,
        'checksum': '0fba41af7689299b391e1188b775af99',
    },
    'q083-aggregate/all_off': {
        'explain': (
            'Project(quantity, total_charge)  [rows~50.0 cost~27.7]',
            '  Extend(lineitem.quantity AS quantity, total_charge AS total_charge)  [rows~50.0 cost~27.6]',
            '    GroupBy(keys: lineitem.quantity; aggs: sum->total_charge)  [rows~50.0 cost~27.5]',
            '      SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 877.16 AND 972.72)  [rows~117.9 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 50.0,
        'page_reads': 19,
        'checksum': '0fba41af7689299b391e1188b775af99',
    },
    'q084-aggregate/default': {
        'explain': (
            'Project(segment, n, lo, hi)  [rows~5.0 cost~2.2]',
            '  Extend(customer.segment AS segment, n AS n, lo AS lo, hi AS hi)  [rows~5.0 cost~2.2]',
            '    GroupBy(keys: customer.segment; aggs: count->n, min->lo, max->hi)  [rows~5.0 cost~2.2]',
            '      SeqScan(customer AS customer)  [rows~60.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.0,
        'page_reads': 1,
        'checksum': '49d929525088f3b5711509e8384399e8',
    },
    'q084-aggregate/all_off': {
        'explain': (
            'Project(segment, n, lo, hi)  [rows~5.0 cost~2.2]',
            '  Extend(customer.segment AS segment, n AS n, lo AS lo, hi AS hi)  [rows~5.0 cost~2.2]',
            '    GroupBy(keys: customer.segment; aggs: count->n, min->lo, max->hi)  [rows~5.0 cost~2.2]',
            '      SeqScan(customer AS customer)  [rows~60.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.0,
        'page_reads': 1,
        'checksum': '49d929525088f3b5711509e8384399e8',
    },
    'q085-aggregate/default': {
        'explain': (
            'Project(nation_id, n)  [rows~6.0 cost~1.3]',
            '  Extend(supplier.nation_id AS nation_id, n AS n)  [rows~6.0 cost~1.3]',
            '    GroupBy(keys: supplier.nation_id; aggs: count->n; having: n > 1)  [rows~6.0 cost~1.2]',
            '      SeqScan(supplier AS supplier)  [rows~12.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.0,
        'page_reads': 1,
        'checksum': 'c6ae291143e7dbdf8997cf60425a18f1',
    },
    'q085-aggregate/all_off': {
        'explain': (
            'Project(nation_id, n)  [rows~6.0 cost~1.3]',
            '  Extend(supplier.nation_id AS nation_id, n AS n)  [rows~6.0 cost~1.3]',
            '    GroupBy(keys: supplier.nation_id; aggs: count->n; having: n > 1)  [rows~6.0 cost~1.2]',
            '      SeqScan(supplier AS supplier)  [rows~12.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.0,
        'page_reads': 1,
        'checksum': 'c6ae291143e7dbdf8997cf60425a18f1',
    },
    'q086-aggregate/default': {
        'explain': (
            'Project(category, avg_price)  [rows~10.0 cost~1.6]',
            '  Extend(part.category AS category, avg_price AS avg_price)  [rows~10.0 cost~1.6]',
            '    GroupBy(keys: part.category; aggs: avg->avg_price; having: avg_price > 300.0)  [rows~10.0 cost~1.6]',
            '      SeqScan(part AS part)  [rows~30.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 10.0,
        'page_reads': 1,
        'checksum': '26cccdfb9150d6d03f598423b20623fe',
    },
    'q086-aggregate/all_off': {
        'explain': (
            'Project(category, avg_price)  [rows~10.0 cost~1.6]',
            '  Extend(part.category AS category, avg_price AS avg_price)  [rows~10.0 cost~1.6]',
            '    GroupBy(keys: part.category; aggs: avg->avg_price; having: avg_price > 300.0)  [rows~10.0 cost~1.6]',
            '      SeqScan(part AS part)  [rows~30.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 10.0,
        'page_reads': 1,
        'checksum': '26cccdfb9150d6d03f598423b20623fe',
    },
    'q087-aggregate/default': {
        'explain': (
            'Project(n, s, a)  [rows~1.0 cost~14.0]',
            '  Extend(n AS n, s AS s, a AS a)  [rows~1.0 cost~14.0]',
            '    GroupBy(keys: (); aggs: count->n, sum->s, avg->a)  [rows~1.0 cost~14.0]',
            '      SeqScan(orders AS orders)  [rows~450.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 5,
        'checksum': '096524bed0aaad6a36842d83d65ed16b',
    },
    'q087-aggregate/all_off': {
        'explain': (
            'Project(n, s, a)  [rows~1.0 cost~14.0]',
            '  Extend(n AS n, s AS s, a AS a)  [rows~1.0 cost~14.0]',
            '    GroupBy(keys: (); aggs: count->n, sum->s, avg->a)  [rows~1.0 cost~14.0]',
            '      SeqScan(orders AS orders)  [rows~450.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 5,
        'checksum': '096524bed0aaad6a36842d83d65ed16b',
    },
    'q088-aggregate/default': {
        'explain': (
            'Project(priorities)  [rows~1.0 cost~14.0]',
            '  Extend(priorities AS priorities)  [rows~1.0 cost~14.0]',
            '    GroupBy(keys: (); aggs: count->priorities)  [rows~1.0 cost~14.0]',
            '      SeqScan(orders AS orders)  [rows~450.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 5,
        'checksum': '177210da2decb95dc7dc81540bb44275',
    },
    'q088-aggregate/all_off': {
        'explain': (
            'Project(priorities)  [rows~1.0 cost~14.0]',
            '  Extend(priorities AS priorities)  [rows~1.0 cost~14.0]',
            '    GroupBy(keys: (); aggs: count->priorities)  [rows~1.0 cost~14.0]',
            '      SeqScan(orders AS orders)  [rows~450.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 5,
        'checksum': '177210da2decb95dc7dc81540bb44275',
    },
    'q089-aggregate/default': {
        'explain': (
            'Project(worst)  [rows~1.0 cost~26.1]',
            '  Extend(worst AS worst)  [rows~1.0 cost~26.1]',
            '    GroupBy(keys: (); aggs: max->worst)  [rows~1.0 cost~26.1]',
            '      SeqScan(lineitem AS lineitem, filter: lineitem.quantity = 25)  [rows~25.2 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 19,
        'checksum': '16b30765bf051e67369ad39733e9ae8f',
    },
    'q089-aggregate/all_off': {
        'explain': (
            'Project(worst)  [rows~1.0 cost~26.1]',
            '  Extend(worst AS worst)  [rows~1.0 cost~26.1]',
            '    GroupBy(keys: (); aggs: max->worst)  [rows~1.0 cost~26.1]',
            '      SeqScan(lineitem AS lineitem, filter: lineitem.quantity = 25)  [rows~25.2 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 1.0,
        'page_reads': 19,
        'checksum': '16b30765bf051e67369ad39733e9ae8f',
    },
    'q090-aggregate/default': {
        'explain': (
            'Project(customer_id, n)  [rows~51.0 cost~9.7]',
            '  Extend(orders.customer_id AS customer_id, n AS n)  [rows~51.0 cost~9.6]',
            '    GroupBy(keys: orders.customer_id; aggs: count->n; having: n >= 3)  [rows~51.0 cost~9.5]',
            '      SeqScan(orders AS orders, filter: orders.priority = 0)  [rows~148.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 51.0,
        'page_reads': 5,
        'checksum': '6dc5e2aa0787d34d3687bcc7f193e915',
    },
    'q090-aggregate/all_off': {
        'explain': (
            'Project(customer_id, n)  [rows~51.0 cost~9.7]',
            '  Extend(orders.customer_id AS customer_id, n AS n)  [rows~51.0 cost~9.6]',
            '    GroupBy(keys: orders.customer_id; aggs: count->n; having: n >= 3)  [rows~51.0 cost~9.5]',
            '      SeqScan(orders AS orders, filter: orders.priority = 0)  [rows~148.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 51.0,
        'page_reads': 5,
        'checksum': '6dc5e2aa0787d34d3687bcc7f193e915',
    },
    'q091-aggregate/default': {
        'explain': (
            'Project(customer_id, n)  [rows~51.0 cost~9.7]',
            '  Extend(orders.customer_id AS customer_id, n AS n)  [rows~51.0 cost~9.6]',
            '    GroupBy(keys: orders.customer_id; aggs: count->n; having: n >= 3)  [rows~51.0 cost~9.5]',
            '      SeqScan(orders AS orders, filter: orders.priority = 0)  [rows~148.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 51.0,
        'page_reads': 5,
        'checksum': '6dc5e2aa0787d34d3687bcc7f193e915',
    },
    'q091-aggregate/all_off': {
        'explain': (
            'Project(customer_id, n)  [rows~51.0 cost~9.7]',
            '  Extend(orders.customer_id AS customer_id, n AS n)  [rows~51.0 cost~9.6]',
            '    GroupBy(keys: orders.customer_id; aggs: count->n; having: n >= 3)  [rows~51.0 cost~9.5]',
            '      SeqScan(orders AS orders, filter: orders.priority = 0)  [rows~148.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 51.0,
        'page_reads': 5,
        'checksum': '6dc5e2aa0787d34d3687bcc7f193e915',
    },
    'q092-aggregate/default': {
        'explain': (
            'Project(customer_id, n)  [rows~51.0 cost~9.7]',
            '  Extend(orders.customer_id AS customer_id, n AS n)  [rows~51.0 cost~9.6]',
            '    GroupBy(keys: orders.customer_id; aggs: count->n; having: n >= 3)  [rows~51.0 cost~9.5]',
            '      SeqScan(orders AS orders, filter: orders.priority = 0)  [rows~148.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 51.0,
        'page_reads': 5,
        'checksum': '6dc5e2aa0787d34d3687bcc7f193e915',
    },
    'q092-aggregate/all_off': {
        'explain': (
            'Project(customer_id, n)  [rows~51.0 cost~9.7]',
            '  Extend(orders.customer_id AS customer_id, n AS n)  [rows~51.0 cost~9.6]',
            '    GroupBy(keys: orders.customer_id; aggs: count->n; having: n >= 3)  [rows~51.0 cost~9.5]',
            '      SeqScan(orders AS orders, filter: orders.priority = 0)  [rows~148.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 51.0,
        'page_reads': 5,
        'checksum': '6dc5e2aa0787d34d3687bcc7f193e915',
    },
    'q093-topk/default': {
        'explain': (
            'Limit(20)  [rows~0.4 cost~3.1]',
            '  Project(id, total)  [rows~0.4 cost~3.1]',
            '    Sort(orders.total DESC)  [rows~0.4 cost~3.1]',
            '      Extend(orders.id AS id, orders.total AS total)  [rows~0.4 cost~3.1]',
            '        IndexScan(orders AS orders VIA idx_orders_odate [[11370.0]..[11415.0]], filter: orders.ship_date BETWEEN 11400 AND 11415 AND orders.order_date BETWEEN 11370.0 AND 11415.0)  [rows~0.4 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.359313459801,
        'page_reads': 3,
        'checksum': 'dc4d6d046623d73ee07658e773623cd1',
    },
    'q093-topk/all_off': {
        'explain': (
            'Limit(20)  [rows~6.6 cost~7.4]',
            '  Project(id, total)  [rows~6.6 cost~7.4]',
            '    Sort(orders.total DESC)  [rows~6.6 cost~7.4]',
            '      Extend(orders.id AS id, orders.total AS total)  [rows~6.6 cost~7.3]',
            '        SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11400 AND 11415)  [rows~6.6 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.55504284773,
        'page_reads': 5,
        'checksum': 'dc4d6d046623d73ee07658e773623cd1',
    },
    'q094-topk/default': {
        'explain': (
            'Limit(5)  [rows~0.6 cost~3.2]',
            '  Project(id, total)  [rows~0.6 cost~3.2]',
            '    Sort(orders.total DESC)  [rows~0.6 cost~3.2]',
            '      Extend(orders.id AS id, orders.total AS total)  [rows~0.6 cost~3.2]',
            '        IndexScan(orders AS orders VIA idx_orders_odate [[11557.0]..[11602.0]], filter: orders.ship_date BETWEEN 11587 AND 11602 AND orders.order_date BETWEEN 11557.0 AND 11602.0)  [rows~0.6 cost~3.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.615791534392,
        'page_reads': 3,
        'checksum': 'c193c2ff7ce73dd5b2103c77b5258b57',
    },
    'q094-topk/all_off': {
        'explain': (
            'Limit(5)  [rows~5.0 cost~7.4]',
            '  Project(id, total)  [rows~8.5 cost~7.4]',
            '    Sort(orders.total DESC)  [rows~8.5 cost~7.4]',
            '      Extend(orders.id AS id, orders.total AS total)  [rows~8.5 cost~7.3]',
            '        SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11587 AND 11602)  [rows~8.5 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.0,
        'page_reads': 5,
        'checksum': 'c193c2ff7ce73dd5b2103c77b5258b57',
    },
    'q095-topk/default': {
        'explain': (
            'Limit(5)  [rows~0.6 cost~3.2]',
            '  Project(id, total)  [rows~0.6 cost~3.2]',
            '    Sort(orders.total DESC)  [rows~0.6 cost~3.2]',
            '      Extend(orders.id AS id, orders.total AS total)  [rows~0.6 cost~3.1]',
            '        IndexScan(orders AS orders VIA idx_orders_odate [[11010.0]..[11055.0]], filter: orders.ship_date BETWEEN 11040 AND 11055 AND orders.order_date BETWEEN 11010.0 AND 11055.0)  [rows~0.6 cost~3.1]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
            'depends on soft constraints: sc_orders_ship_lag',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_ship_lag: introduced range on orders.order_date from orders.ship_date',
        ),
        'sc_dependencies': (
            'sc_orders_ship_lag',
        ),
        'estimate': 0.604293272865,
        'page_reads': 3,
        'checksum': 'ec97d90d05a00dc478fb214b21468f92',
    },
    'q095-topk/all_off': {
        'explain': (
            'Limit(5)  [rows~5.0 cost~7.4]',
            '  Project(id, total)  [rows~9.4 cost~7.4]',
            '    Sort(orders.total DESC)  [rows~9.4 cost~7.4]',
            '      Extend(orders.id AS id, orders.total AS total)  [rows~9.4 cost~7.3]',
            '        SeqScan(orders AS orders, filter: orders.ship_date BETWEEN 11040 AND 11055)  [rows~9.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 5.0,
        'page_reads': 5,
        'checksum': 'ec97d90d05a00dc478fb214b21468f92',
    },
    'q096-topk/default': {
        'explain': (
            'Limit(15)  [rows~3.2 cost~4.3]',
            '  Project(id, price, charge)  [rows~3.2 cost~4.3]',
            '    Sort(lineitem.charge DESC, lineitem.id)  [rows~3.2 cost~4.3]',
            '      Extend(lineitem.id AS id, lineitem.price AS price, lineitem.charge AS charge)  [rows~3.2 cost~4.2]',
            '        IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[250.0054]..[308.2136]], filter: lineitem.price BETWEEN 235.52 AND 286.18 AND lineitem.charge BETWEEN 250.0054 AND 308.2136)  [rows~3.2 cost~4.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 3.2284278985,
        'page_reads': 4,
        'checksum': 'b05b5c142688b867cfcbc27fd80cd47e',
    },
    'q096-topk/all_off': {
        'explain': (
            'Limit(15)  [rows~15.0 cost~29.8]',
            '  Project(id, price, charge)  [rows~63.5 cost~29.8]',
            '    Sort(lineitem.charge DESC, lineitem.id)  [rows~63.5 cost~29.7]',
            '      Extend(lineitem.id AS id, lineitem.price AS price, lineitem.charge AS charge)  [rows~63.5 cost~25.9]',
            '        SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 235.52 AND 286.18)  [rows~63.5 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 15.0,
        'page_reads': 19,
        'checksum': 'b05b5c142688b867cfcbc27fd80cd47e',
    },
    'q097-topk/default': {
        'explain': (
            'Limit(15)  [rows~12.3 cost~6.7]',
            '  Project(id, price, charge)  [rows~12.3 cost~6.7]',
            '    Sort(lineitem.charge DESC, lineitem.id)  [rows~12.3 cost~6.7]',
            '      Extend(lineitem.id AS id, lineitem.price AS price, lineitem.charge AS charge)  [rows~12.3 cost~6.2]',
            '        IndexScan(lineitem AS lineitem VIA idx_lineitem_charge [[318.6673]..[406.8141]], filter: lineitem.price BETWEEN 299.69 AND 378.33 AND lineitem.charge BETWEEN 318.6673 AND 406.8141)  [rows~12.3 cost~6.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
            'depends on soft constraints: sc_lineitem_charge',
        ),
        'rewrites': (
            'predicate_introduction: sc_lineitem_charge: introduced range on lineitem.charge from lineitem.price',
        ),
        'sc_dependencies': (
            'sc_lineitem_charge',
        ),
        'estimate': 12.3362703827,
        'page_reads': 5,
        'checksum': '4eaca5b5a76a1218652b48e6eb2ee906',
    },
    'q097-topk/all_off': {
        'explain': (
            'Limit(15)  [rows~15.0 cost~35.1]',
            '  Project(id, price, charge)  [rows~127.2 cost~35.1]',
            '    Sort(lineitem.charge DESC, lineitem.id)  [rows~127.2 cost~34.9]',
            '      Extend(lineitem.id AS id, lineitem.price AS price, lineitem.charge AS charge)  [rows~127.2 cost~26.0]',
            '        SeqScan(lineitem AS lineitem, filter: lineitem.price BETWEEN 299.69 AND 378.33)  [rows~127.2 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 15.0,
        'page_reads': 19,
        'checksum': '4eaca5b5a76a1218652b48e6eb2ee906',
    },
    'q098-topk/default': {
        'explain': (
            'Limit(10)  [rows~10.0 cost~3.2]',
            '  Project(id, balance)  [rows~58.0 cost~3.2]',
            '    Sort(customer.balance)  [rows~58.0 cost~3.1]',
            '      Extend(customer.id AS id, customer.balance AS balance)  [rows~58.0 cost~1.4]',
            '        SeqScan(customer AS customer, filter: customer.balance IS NOT NULL)  [rows~58.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 10.0,
        'page_reads': 1,
        'checksum': 'bf69db5af656db22772c13f84ad9af1f',
    },
    'q098-topk/all_off': {
        'explain': (
            'Limit(10)  [rows~10.0 cost~3.2]',
            '  Project(id, balance)  [rows~58.0 cost~3.2]',
            '    Sort(customer.balance)  [rows~58.0 cost~3.1]',
            '      Extend(customer.id AS id, customer.balance AS balance)  [rows~58.0 cost~1.4]',
            '        SeqScan(customer AS customer, filter: customer.balance IS NOT NULL)  [rows~58.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 10.0,
        'page_reads': 1,
        'checksum': 'bf69db5af656db22772c13f84ad9af1f',
    },
    'q099-topk/default': {
        'explain': (
            'Limit(8)  [rows~8.0 cost~2.7]',
            '  Project(id, retail_price)  [rows~30.0 cost~2.7]',
            '    Sort(part.retail_price DESC, part.id)  [rows~30.0 cost~2.7]',
            '      Extend(part.id AS id, part.retail_price AS retail_price)  [rows~30.0 cost~1.2]',
            '        SeqScan(part AS part)  [rows~30.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 8.0,
        'page_reads': 1,
        'checksum': '9dd5071cbcd42e721293dff3c67b362f',
    },
    'q099-topk/all_off': {
        'explain': (
            'Limit(8)  [rows~8.0 cost~2.7]',
            '  Project(id, retail_price)  [rows~30.0 cost~2.7]',
            '    Sort(part.retail_price DESC, part.id)  [rows~30.0 cost~2.7]',
            '      Extend(part.id AS id, part.retail_price AS retail_price)  [rows~30.0 cost~1.2]',
            '        SeqScan(part AS part)  [rows~30.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 8.0,
        'page_reads': 1,
        'checksum': '9dd5071cbcd42e721293dff3c67b362f',
    },
    'q100-topk/default': {
        'explain': (
            'Limit(12)  [rows~12.0 cost~48.7]',
            '  Project(id, total)  [rows~450.0 cost~48.7]',
            '    Sort(o.total DESC, o.id)  [rows~450.0 cost~47.8]',
            '      Extend(o.id AS id, o.total AS total)  [rows~450.0 cost~8.2]',
            '        SeqScan(orders AS o)  [rows~450.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - join_elimination: removed customer AS c via FK fk_orders_cust',
        ),
        'rewrites': (
            'join_elimination: removed customer AS c via FK fk_orders_cust',
        ),
        'sc_dependencies': (
        ),
        'estimate': 12.0,
        'page_reads': 5,
        'checksum': 'b09e3a932eeae25b1fae265f4cc63272',
    },
    'q100-topk/all_off': {
        'explain': (
            'Limit(12)  [rows~12.0 cost~57.1]',
            '  Project(id, total)  [rows~450.0 cost~57.1]',
            '    Sort(o.total DESC, o.id)  [rows~450.0 cost~56.2]',
            '      Extend(o.id AS id, o.total AS total)  [rows~450.0 cost~16.5]',
            '        HashJoin(on c.id=o.customer_id)  [rows~450.0 cost~15.6]',
            '          SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '          SeqScan(orders AS o)  [rows~450.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 12.0,
        'page_reads': 6,
        'checksum': 'b09e3a932eeae25b1fae265f4cc63272',
    },
    'q101-distinct/default': {
        'explain': (
            'Distinct  [rows~54.0 cost~2.4]',
            '  Project(segment)  [rows~60.0 cost~1.5]',
            '    Extend(customer.segment AS segment)  [rows~60.0 cost~1.4]',
            '      SeqScan(customer AS customer)  [rows~60.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 54.0,
        'page_reads': 1,
        'checksum': '50d391531b41f20a164f13844d469360',
    },
    'q101-distinct/all_off': {
        'explain': (
            'Distinct  [rows~54.0 cost~2.4]',
            '  Project(segment)  [rows~60.0 cost~1.5]',
            '    Extend(customer.segment AS segment)  [rows~60.0 cost~1.4]',
            '      SeqScan(customer AS customer)  [rows~60.0 cost~1.3]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 54.0,
        'page_reads': 1,
        'checksum': '50d391531b41f20a164f13844d469360',
    },
    'q102-distinct/default': {
        'explain': (
            'Distinct  [rows~190.2 cost~11.3]',
            '  Project(priority)  [rows~211.4 cost~8.1]',
            '    Extend(orders.priority AS priority)  [rows~211.4 cost~7.7]',
            '      SeqScan(orders AS orders, filter: orders.total > 5000.0 AND orders.total <= PARAM(sc_orders_total.high))  [rows~211.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
            'rewrites:',
            '  - predicate_introduction: sc_orders_total: abbreviated range on orders.total (runtime parameters)',
            'depends on soft constraints: sc_orders_total',
        ),
        'rewrites': (
            'predicate_introduction: sc_orders_total: abbreviated range on orders.total (runtime parameters)',
        ),
        'sc_dependencies': (
            'sc_orders_total',
        ),
        'estimate': 190.242829118,
        'page_reads': 5,
        'checksum': 'bb4137cff112dee8e291ba7ffcf70cf7',
    },
    'q102-distinct/all_off': {
        'explain': (
            'Distinct  [rows~190.2 cost~11.3]',
            '  Project(priority)  [rows~211.4 cost~8.1]',
            '    Extend(orders.priority AS priority)  [rows~211.4 cost~7.7]',
            '      SeqScan(orders AS orders, filter: orders.total > 5000.0)  [rows~211.4 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 190.242829118,
        'page_reads': 5,
        'checksum': 'bb4137cff112dee8e291ba7ffcf70cf7',
    },
    'q103-distinct/default': {
        'explain': (
            'Distinct  [rows~3.6 cost~1.2]',
            '  Project(category, size)  [rows~4.0 cost~1.2]',
            '    Extend(part.category AS category, part.size AS size)  [rows~4.0 cost~1.2]',
            '      SeqScan(part AS part, filter: part.size > 40)  [rows~4.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 3.6,
        'page_reads': 1,
        'checksum': '619e13eaf9a401ae7129e00ead449c8d',
    },
    'q103-distinct/all_off': {
        'explain': (
            'Distinct  [rows~3.6 cost~1.2]',
            '  Project(category, size)  [rows~4.0 cost~1.2]',
            '    Extend(part.category AS category, part.size AS size)  [rows~4.0 cost~1.2]',
            '      SeqScan(part AS part, filter: part.size > 40)  [rows~4.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 3.6,
        'page_reads': 1,
        'checksum': '619e13eaf9a401ae7129e00ead449c8d',
    },
    'q104-distinct/default': {
        'explain': (
            'Distinct  [rows~6.3 cost~1.2]',
            '  Project(nation_id)  [rows~7.0 cost~1.1]',
            '    Extend(supplier.nation_id AS nation_id)  [rows~7.0 cost~1.1]',
            '      SeqScan(supplier AS supplier, filter: supplier.rating >= 2)  [rows~7.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.3,
        'page_reads': 1,
        'checksum': '42e51f7b3b1956869b9969fac4d57e82',
    },
    'q104-distinct/all_off': {
        'explain': (
            'Distinct  [rows~6.3 cost~1.2]',
            '  Project(nation_id)  [rows~7.0 cost~1.1]',
            '    Extend(supplier.nation_id AS nation_id)  [rows~7.0 cost~1.1]',
            '      SeqScan(supplier AS supplier, filter: supplier.rating >= 2)  [rows~7.0 cost~1.1]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 6.3,
        'page_reads': 1,
        'checksum': '42e51f7b3b1956869b9969fac4d57e82',
    },
    'q105-distinct/default': {
        'explain': (
            'Distinct  [rows~133.2 cost~13.9]',
            '  Project(segment)  [rows~148.0 cost~11.7]',
            '    Extend(c.segment AS segment)  [rows~148.0 cost~11.4]',
            '      HashJoin(on c.id=o.customer_id)  [rows~148.0 cost~11.1]',
            '        SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '        SeqScan(orders AS o, filter: o.priority = 0)  [rows~148.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 133.2,
        'page_reads': 6,
        'checksum': '50d391531b41f20a164f13844d469360',
    },
    'q105-distinct/all_off': {
        'explain': (
            'Distinct  [rows~133.2 cost~13.9]',
            '  Project(segment)  [rows~148.0 cost~11.7]',
            '    Extend(c.segment AS segment)  [rows~148.0 cost~11.4]',
            '      HashJoin(on c.id=o.customer_id)  [rows~148.0 cost~11.1]',
            '        SeqScan(customer AS c)  [rows~60.0 cost~1.3]',
            '        SeqScan(orders AS o, filter: o.priority = 0)  [rows~148.0 cost~7.2]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 133.2,
        'page_reads': 6,
        'checksum': '50d391531b41f20a164f13844d469360',
    },
    'q106-distinct/default': {
        'explain': (
            'Distinct  [rows~126.9 cost~28.4]',
            '  Project(quantity)  [rows~141.0 cost~26.3]',
            '    Extend(lineitem.quantity AS quantity)  [rows~141.0 cost~26.0]',
            '      SeqScan(lineitem AS lineitem, filter: lineitem.discount < 0.01)  [rows~141.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 126.9,
        'page_reads': 19,
        'checksum': '6634817eadd04c0bb42222e000f88ad0',
    },
    'q106-distinct/all_off': {
        'explain': (
            'Distinct  [rows~126.9 cost~28.4]',
            '  Project(quantity)  [rows~141.0 cost~26.3]',
            '    Extend(lineitem.quantity AS quantity)  [rows~141.0 cost~26.0]',
            '      SeqScan(lineitem AS lineitem, filter: lineitem.discount < 0.01)  [rows~141.0 cost~25.8]',
            'expressions: compiled=yes (compile cache: masked)',
        ),
        'rewrites': (
        ),
        'sc_dependencies': (
        ),
        'estimate': 126.9,
        'page_reads': 19,
        'checksum': '6634817eadd04c0bb42222e000f88ad0',
    },
}
